#include "sim/memimage.hh"

#include <bit>
#include <cmath>

#include "support/logging.hh"
#include "support/random.hh"

namespace selvec
{

MemoryImage::MemoryImage(const ArrayTable &arrays) : table(arrays)
{
    data.resize(static_cast<size_t>(arrays.size()));
    for (ArrayId a = 0; a < arrays.size(); ++a) {
        data[static_cast<size_t>(a)].assign(
            static_cast<size_t>(arrays[a].size + 2 * kGuard), 0);
    }
}

const uint64_t *
MemoryImage::cell(ArrayId arr, int64_t index, bool store) const
{
    SV_ASSERT(arr >= 0 && arr < table.size(), "bad array id %d", arr);
    const ArrayInfo &info = table[arr];
    if (store) {
        SV_ASSERT(index >= 0 && index < info.size,
                  "store out of bounds: %s[%lld] (size %lld)",
                  info.name.c_str(), static_cast<long long>(index),
                  static_cast<long long>(info.size));
    } else {
        SV_ASSERT(index >= -kGuard && index < info.size + kGuard,
                  "load far out of bounds: %s[%lld] (size %lld)",
                  info.name.c_str(), static_cast<long long>(index),
                  static_cast<long long>(info.size));
    }
    return &data[static_cast<size_t>(arr)]
                [static_cast<size_t>(index + kGuard)];
}

uint64_t *
MemoryImage::cell(ArrayId arr, int64_t index, bool store)
{
    return const_cast<uint64_t *>(
        static_cast<const MemoryImage *>(this)->cell(arr, index, store));
}

double
MemoryImage::loadF(ArrayId arr, int64_t index) const
{
    return std::bit_cast<double>(*cell(arr, index, false));
}

int64_t
MemoryImage::loadI(ArrayId arr, int64_t index) const
{
    return static_cast<int64_t>(*cell(arr, index, false));
}

void
MemoryImage::storeF(ArrayId arr, int64_t index, double v)
{
    *cell(arr, index, true) = std::bit_cast<uint64_t>(v);
}

void
MemoryImage::storeI(ArrayId arr, int64_t index, int64_t v)
{
    *cell(arr, index, true) = static_cast<uint64_t>(v);
}

void
MemoryImage::fillPattern(uint64_t seed)
{
    Rng rng(seed);
    for (ArrayId a = 0; a < table.size(); ++a) {
        const ArrayInfo &info = table[a];
        for (int64_t i = 0; i < info.size; ++i) {
            if (info.elemType == Type::F64) {
                // Small magnitudes keep every technique's arithmetic
                // exactly representable enough for bitwise comparison.
                double v = static_cast<double>(rng.range(-1024, 1024)) /
                           32.0;
                storeF(a, i, v);
            } else {
                storeI(a, i, rng.range(-4096, 4096));
            }
        }
    }
}

namespace
{

/** One differing element, each side printed in the array's type. */
std::string
describeMismatch(const ArrayInfo &info, int64_t i, uint64_t lhs,
                 uint64_t rhs)
{
    if (info.elemType == Type::F64) {
        return strfmt("%s[%lld]: %.17g vs %.17g", info.name.c_str(),
                      static_cast<long long>(i),
                      std::bit_cast<double>(lhs),
                      std::bit_cast<double>(rhs));
    }
    return strfmt("%s[%lld]: %lld vs %lld", info.name.c_str(),
                  static_cast<long long>(i), static_cast<long long>(lhs),
                  static_cast<long long>(rhs));
}

} // anonymous namespace

std::string
MemoryImage::diff(const MemoryImage &other) const
{
    SV_ASSERT(table.size() == other.table.size(),
              "comparing images over different array tables");
    for (ArrayId a = 0; a < table.size(); ++a) {
        const ArrayInfo &info = table[a];
        if (info.synthesized)
            continue;
        for (int64_t i = 0; i < info.size; ++i) {
            uint64_t lhs = *cell(a, i, false);
            uint64_t rhs = *other.cell(a, i, false);
            if (lhs != rhs)
                return describeMismatch(info, i, lhs, rhs);
        }
    }
    return "";
}

} // namespace selvec

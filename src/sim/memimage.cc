#include "sim/memimage.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"
#include "support/random.hh"

namespace selvec
{

MemoryImage::MemoryImage(const ArrayTable &arrays) : table(arrays)
{
    buffers.resize(static_cast<size_t>(arrays.size()));
    uint64_t offset = 0;
    for (ArrayId a = 0; a < arrays.size(); ++a) {
        Buffer &buf = buffers[static_cast<size_t>(a)];
        const ArrayInfo &info = arrays[a];
        int64_t cells = info.size + 2 * kGuard;
        buf.size = info.size;
        buf.offset = offset;
        buf.elemType = info.elemType;
        buf.cells = std::make_unique_for_overwrite<uint64_t[]>(
            static_cast<size_t>(cells));
        buf.filled.assign(static_cast<size_t>((cells + kBlock - 1) / kBlock),
                          0);
        offset += static_cast<uint64_t>(info.size);
    }
}

MemoryImage::MemoryImage(const MemoryImage &other)
    : table(other.table), seeded(other.seeded),
      patternSeed(other.patternSeed)
{
    buffers.resize(other.buffers.size());
    for (size_t a = 0; a < buffers.size(); ++a) {
        Buffer &buf = buffers[a];
        const Buffer &from = other.buffers[a];
        int64_t cells = from.size + 2 * kGuard;
        buf.size = from.size;
        buf.offset = from.offset;
        buf.elemType = from.elemType;
        buf.cells = std::make_unique_for_overwrite<uint64_t[]>(
            static_cast<size_t>(cells));
        buf.filled = from.filled;
        for (size_t b = 0; b < buf.filled.size(); ++b) {
            if (!buf.filled[b])
                continue;
            int64_t first = static_cast<int64_t>(b) * kBlock;
            std::copy_n(from.cells.get() + first,
                        std::min(kBlock, cells - first),
                        buf.cells.get() + first);
        }
    }
}

void
MemoryImage::badAccess(ArrayId arr, int64_t index, bool store) const
{
    SV_ASSERT(arr >= 0 && arr < static_cast<ArrayId>(buffers.size()),
              "bad array id %d", arr);
    const ArrayInfo &info = table[arr];
    SV_PANIC("%s out of bounds: %s[%lld] (size %lld)",
             store ? "store" : "load far", info.name.c_str(),
             static_cast<long long>(index),
             static_cast<long long>(info.size));
}

void
MemoryImage::fillBlock(Buffer &buf, size_t block) const
{
    // Cells [first, end) by array index; in range are [lo, hi).
    int64_t first = static_cast<int64_t>(block) * kBlock - kGuard;
    int64_t end = std::min(first + kBlock, buf.size + kGuard);
    int64_t lo = std::clamp<int64_t>(0, first, end);
    int64_t hi = std::clamp<int64_t>(buf.size, lo, end);
    uint64_t *base = buf.cells.get() + kGuard;
    std::fill(base + first, base + lo, 0);
    if (!seeded || lo == hi) {
        std::fill(base + lo, base + hi, 0);
    } else {
        Rng rng(patternSeed);
        rng.discard(buf.offset + static_cast<uint64_t>(lo));
        for (int64_t i = lo; i < hi; ++i) {
            if (buf.elemType == Type::F64) {
                // Small magnitudes keep every technique's arithmetic
                // exactly representable enough for bitwise comparison.
                double v = static_cast<double>(rng.range(-1024, 1024)) /
                           32.0;
                base[i] = std::bit_cast<uint64_t>(v);
            } else {
                base[i] = static_cast<uint64_t>(rng.range(-4096, 4096));
            }
        }
    }
    std::fill(base + hi, base + end, 0);
    buf.filled[block] = 1;
}

uint64_t *
MemoryImage::cell(ArrayId arr, int64_t index, bool store) const
{
    if (arr < 0 || arr >= static_cast<ArrayId>(buffers.size()))
        badAccess(arr, index, store);
    Buffer &buf = buffers[static_cast<size_t>(arr)];
    if (store ? index < 0 || index >= buf.size
              : index < -kGuard || index >= buf.size + kGuard)
        badAccess(arr, index, store);
    size_t at = static_cast<size_t>(index + kGuard);
    size_t block = at / static_cast<size_t>(kBlock);
    if (!buf.filled[block])
        fillBlock(buf, block);
    return &buf.cells[at];
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
    seeded = true;
    patternSeed = seed;
    for (Buffer &buf : buffers)
        std::fill(buf.filled.begin(), buf.filled.end(), 0);
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
    bool same_shape = buffers.size() == other.buffers.size();
    for (size_t a = 0; same_shape && a < buffers.size(); ++a) {
        same_shape = buffers[a].size == other.buffers[a].size &&
                     buffers[a].elemType == other.buffers[a].elemType;
    }
    SV_ASSERT(same_shape,
              "comparing images over different array tables");
    // Then a block neither side has filled holds the same cells on
    // both: the same pattern draws, or zeros.
    bool same_origin = seeded == other.seeded &&
                       (!seeded || patternSeed == other.patternSeed);
    for (ArrayId a = 0; a < static_cast<ArrayId>(buffers.size()); ++a) {
        const ArrayInfo &info = table[a];
        if (info.synthesized)
            continue;
        Buffer &lhs = buffers[static_cast<size_t>(a)];
        Buffer &rhs = other.buffers[static_cast<size_t>(a)];
        for (size_t b = 0; b < lhs.filled.size(); ++b) {
            if (!lhs.filled[b] && !rhs.filled[b] && same_origin)
                continue;
            if (!lhs.filled[b])
                fillBlock(lhs, b);
            if (!rhs.filled[b])
                other.fillBlock(rhs, b);
            int64_t first = static_cast<int64_t>(b) * kBlock - kGuard;
            int64_t lo = std::clamp<int64_t>(first, 0, lhs.size);
            int64_t hi =
                std::clamp<int64_t>(first + kBlock, 0, lhs.size);
            for (int64_t i = lo; i < hi; ++i) {
                uint64_t l = lhs.cells[static_cast<size_t>(i + kGuard)];
                uint64_t r = rhs.cells[static_cast<size_t>(i + kGuard)];
                if (l != r)
                    return describeMismatch(info, i, l, r);
            }
        }
    }
    return "";
}

} // namespace selvec

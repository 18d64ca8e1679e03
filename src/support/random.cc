#include "support/random.hh"

#include <array>
#include <bit>

namespace selvec
{

namespace
{

/** A 64x64 matrix over GF(2): column i is the image of bit i. */
using BitMatrix = std::array<uint64_t, 64>;

constexpr uint64_t
apply(const BitMatrix &m, uint64_t v)
{
    uint64_t out = 0;
    for (; v != 0; v &= v - 1)
        out ^= m[static_cast<size_t>(std::countr_zero(v))];
    return out;
}

} // anonymous namespace

void
Rng::discard(uint64_t n)
{
    // jumps[k] advances the state by 2^k draws; each is the square of
    // the one before, so all 64 are built at compile time.
    static constexpr std::array<BitMatrix, 64> jumps = [] {
        std::array<BitMatrix, 64> m{};
        for (size_t i = 0; i < 64; ++i)
            m[0][i] = advance(uint64_t{1} << i);
        for (size_t k = 1; k < 64; ++k) {
            for (size_t i = 0; i < 64; ++i)
                m[k][i] = apply(m[k - 1], m[k - 1][i]);
        }
        return m;
    }();
    for (size_t k = 0; n != 0; ++k, n >>= 1) {
        if (n & 1)
            state = apply(jumps[k], state);
    }
}

} // namespace selvec

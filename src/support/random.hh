/**
 * @file
 * Deterministic pseudo-random number generation for tests, property
 * sweeps and the random loop generator. A thin wrapper over a 64-bit
 * xorshift* generator so results are reproducible across platforms and
 * standard-library versions (std::mt19937 would also be fine, but the
 * distributions are not portable).
 */

#ifndef SELVEC_SUPPORT_RANDOM_HH
#define SELVEC_SUPPORT_RANDOM_HH

#include <cstdint>

#include "support/logging.hh"

namespace selvec
{

/**
 * Deterministic random source. Same seed, same sequence, everywhere.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : state(seed ? seed : 1)
    {}

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        state = advance(state);
        return state * 0x2545f4914f6cdd1dULL;
    }

    /**
     * Skip `n` draws: afterwards the generator is exactly where `n`
     * calls of next() would have left it. The state update is linear
     * over GF(2), so the jump multiplies the state by precomputed
     * 64x64 bit matrices, one per set bit of `n` (well under a
     * microsecond for any block of a memory image).
     */
    void discard(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        SV_ASSERT(lo <= hi, "bad range [%lld, %lld]",
                  static_cast<long long>(lo), static_cast<long long>(hi));
        uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
        return lo + static_cast<int64_t>(next() % span);
    }

    /** Uniform double in [0, 1). */
    double
    unit()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of true. */
    bool chance(double p) { return unit() < p; }

  private:
    /** xorshift64's state update: a linear map over GF(2)^64. */
    static constexpr uint64_t
    advance(uint64_t x)
    {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        return x;
    }

    uint64_t state;
};

} // namespace selvec

#endif // SELVEC_SUPPORT_RANDOM_HH

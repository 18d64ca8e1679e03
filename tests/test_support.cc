/**
 * @file
 * Unit tests for the support library: formatting and the
 * deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "support/logging.hh"
#include "support/parsenum.hh"
#include "support/random.hh"

namespace selvec
{
namespace
{

TEST(Strfmt, FormatsLikePrintf)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 42, "ok"), "x=42 y=ok");
    EXPECT_EQ(strfmt("%05d", 7), "00007");
    EXPECT_EQ(strfmt("%.2f", 1.5), "1.50");
}

TEST(Strfmt, EmptyAndLong)
{
    EXPECT_EQ(strfmt("%s", ""), "");
    std::string big(500, 'a');
    EXPECT_EQ(strfmt("%s", big.c_str()), big);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int differences = 0;
    for (int i = 0; i < 16; ++i)
        differences += a.next() != b.next() ? 1 : 0;
    EXPECT_GT(differences, 0);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(7);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.range(-2, 3);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    // With 1000 draws every value of a 6-element range appears.
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, DegenerateRange)
{
    Rng rng(9);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.range(5, 5), 5);
}

TEST(Rng, UnitInHalfOpenInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.unit();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, DiscardMatchesRepeatedNext)
{
    const uint64_t seeds[] = {0, 1, 0xC0FFEE, 0x9e3779b97f4a7c15ULL,
                              ~uint64_t{0}};
    const uint64_t counts[] = {0,   1,   2,    63,    64,    65,
                               255, 256, 257,  4095,  70000, 770000};
    for (uint64_t seed : seeds) {
        for (uint64_t n : counts) {
            Rng stepped(seed), jumped(seed);
            for (uint64_t i = 0; i < n; ++i)
                stepped.next();
            jumped.discard(n);
            for (int i = 0; i < 4; ++i) {
                ASSERT_EQ(jumped.next(), stepped.next())
                    << "seed " << seed << ", " << n << " discarded, draw "
                    << i;
            }
        }
    }
    // Jumps compose: two discards land where one of their sum does.
    Rng once(42), twice(42);
    once.discard(770000 + 257);
    twice.discard(770000);
    twice.discard(257);
    EXPECT_EQ(once.next(), twice.next());
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ZeroSeedIsUsable)
{
    Rng rng(0);
    EXPECT_NE(rng.next(), 0u);
}

TEST(ParseNonNegInt, AcceptsPlainDecimals)
{
    int64_t v = -1;
    EXPECT_TRUE(parseNonNegInt("0", &v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(parseNonNegInt("8", &v));
    EXPECT_EQ(v, 8);
    EXPECT_TRUE(parseNonNegInt("1234567890123", &v));
    EXPECT_EQ(v, 1234567890123);
    EXPECT_TRUE(parseNonNegInt("007", &v));
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(parseNonNegInt("9223372036854775807", &v));
    EXPECT_EQ(v, INT64_MAX);
}

TEST(ParseNonNegInt, RejectsEverythingAtoiWouldSwallow)
{
    // The std::atoi failure modes this parser exists to close: each
    // of these silently parsed to 0 (or a truncated prefix) before.
    int64_t v = 42;
    EXPECT_FALSE(parseNonNegInt("", &v));
    EXPECT_FALSE(parseNonNegInt(nullptr, &v));
    EXPECT_FALSE(parseNonNegInt("abc", &v));
    EXPECT_FALSE(parseNonNegInt("3x", &v));       // trailing garbage
    EXPECT_FALSE(parseNonNegInt("x3", &v));
    EXPECT_FALSE(parseNonNegInt("-1", &v));       // negative
    EXPECT_FALSE(parseNonNegInt("+3", &v));       // no sign allowed
    EXPECT_FALSE(parseNonNegInt(" 3", &v));       // no whitespace
    EXPECT_FALSE(parseNonNegInt("3 ", &v));
    EXPECT_FALSE(parseNonNegInt("3.5", &v));
    EXPECT_FALSE(parseNonNegInt("0x10", &v));
    EXPECT_EQ(v, 42) << "out must stay untouched on failure";
}

TEST(ParseNonNegInt, RejectsOverflow)
{
    int64_t v = 42;
    EXPECT_FALSE(parseNonNegInt("9223372036854775808", &v));
    EXPECT_FALSE(parseNonNegInt("99999999999999999999", &v));
    EXPECT_EQ(v, 42);
}

} // anonymous namespace
} // namespace selvec

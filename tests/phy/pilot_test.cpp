#include "phy/pilot.h"

#include <gtest/gtest.h>

#include "util/bits.h"
#include "util/rng.h"

namespace anc::phy {
namespace {

TEST(Pilot, Is64BitsAndStable)
{
    EXPECT_EQ(pilot_sequence().size(), pilot_length);
    EXPECT_EQ(pilot_sequence(), pilot_sequence());
}

TEST(Pilot, MirroredIsReversed)
{
    EXPECT_EQ(pilot_mirrored(), mirrored(pilot_sequence()));
}

TEST(Pilot, IsBalanced)
{
    std::size_t ones = 0;
    for (std::size_t i = 0; i < pilot_length; ++i)
        ones += pilot_sequence()[i];
    EXPECT_GE(ones, 20u);
    EXPECT_LE(ones, 44u);
}

TEST(Pilot, FindExactMatch)
{
    Pcg32 rng{401};
    Bits haystack = random_bits(37, rng);
    haystack.append(pilot_sequence());
    haystack.append(random_bits(63, rng));
    const auto match = find_pilot(haystack, 0);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->position, 37u);
    EXPECT_EQ(match->errors, 0u);
}

TEST(Pilot, FindWithErrors)
{
    Pcg32 rng{402};
    Bits haystack = random_bits(60, rng);
    Bits noisy_pilot = pilot_sequence();
    noisy_pilot.flip(3);
    noisy_pilot.flip(40);
    haystack.append(noisy_pilot);
    const auto match = find_pilot(haystack, 6);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->position, 60u);
    EXPECT_EQ(match->errors, 2u);
}

TEST(Pilot, NoMatchBeyondTolerance)
{
    Pcg32 rng{403};
    Bits noisy_pilot = pilot_sequence();
    for (int i = 0; i < 10; ++i)
        noisy_pilot.flip(i * 6);
    const auto match = find_pilot(noisy_pilot, 6);
    EXPECT_FALSE(match.has_value());
}

TEST(Pilot, RarelyMatchesRandomBits)
{
    Pcg32 rng{404};
    int false_positives = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const Bits noise = random_bits(512, rng);
        if (find_pilot(noise, 6))
            ++false_positives;
    }
    // With 64 bits and tolerance 6 the per-position match probability is
    // ~ 1e-11; across 200*449 positions expect essentially none.
    EXPECT_EQ(false_positives, 0);
}

TEST(Pilot, FindPatternRangeRespected)
{
    Bits haystack(200);
    const Bits pattern{1, 1, 1, 1};
    for (const std::size_t i : {100, 101, 102, 103})
        haystack.set(i, true);
    EXPECT_FALSE(find_pattern(haystack, pattern, 0, 50, 0).has_value());
    const auto match = find_pattern(haystack, pattern, 0, 150, 0);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->position, 100u);
}

TEST(Pilot, FindPatternPrefersFewestErrors)
{
    Bits haystack(64);
    const Bits pattern{1, 1, 1, 1};
    // Position 10: 3 of 4 bits match; position 30: exact match.
    for (const std::size_t i : {10, 11, 12, 30, 31, 32, 33})
        haystack.set(i, true);
    const auto match = find_pattern(haystack, pattern, 0, haystack.size(), 1);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->position, 30u);
    EXPECT_EQ(match->errors, 0u);
}

TEST(Pilot, EmptyOrOversizedInputs)
{
    const Bits pattern{1, 0};
    EXPECT_FALSE(find_pattern(Bits{}, pattern, 0, 10, 0).has_value());
    EXPECT_FALSE(find_pattern(Bits{1}, pattern, 0, 10, 0).has_value());
    EXPECT_FALSE(find_pilot(Bits(32), 6).has_value());
}

} // namespace
} // namespace anc::phy

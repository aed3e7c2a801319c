#include "dsp/scrambler.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/bits.h"
#include "util/rng.h"

namespace anc::dsp {
namespace {

Bits scrambled(const Scrambler& scrambler, Bits bits)
{
    scrambler.apply(bits);
    return bits;
}

/// The historical byte-per-bit scrambler: the V.41 LFSR stepped once per
/// bit, each feedback bit XORed onto one bit.
std::vector<std::uint8_t> scrambled_reference(std::uint16_t seed,
                                              const std::vector<std::uint8_t>& bits)
{
    std::vector<std::uint8_t> out(bits.size());
    std::uint16_t lfsr = seed;
    for (std::size_t i = 0; i < bits.size(); ++i) {
        const auto feedback = static_cast<std::uint16_t>(
            ((lfsr >> 0u) ^ (lfsr >> 2u) ^ (lfsr >> 3u) ^ (lfsr >> 5u)) & 1u);
        lfsr = static_cast<std::uint16_t>((lfsr >> 1u) | (feedback << 15u));
        out[i] = static_cast<std::uint8_t>(bits[i] ^ feedback);
    }
    return out;
}

TEST(Scrambler, SelfInverse)
{
    Pcg32 rng{111};
    const Bits data = random_bits(1000, rng);
    const Scrambler scrambler{0x1234};
    EXPECT_EQ(scrambled(scrambler, scrambled(scrambler, data)), data);
}

TEST(Scrambler, MatchesByteReferenceOnRaggedLengths)
{
    // The word keystream against the per-bit LFSR loop, on lengths that
    // are multiples of neither 8 nor 64 (plus a few edges), for several
    // seeds.
    Pcg32 rng{2024};
    const std::size_t lengths[] = {0, 1, 63, 64, 65, 127, 129, 1001, 2053, 4099};
    for (const std::uint16_t seed : {std::uint16_t{0xACE1}, std::uint16_t{1},
                                     std::uint16_t{0x8000}, std::uint16_t{0xffff}}) {
        for (const std::size_t n : lengths) {
            const Bits data = random_bits(n, rng);
            std::vector<std::uint8_t> bytes(n);
            for (std::size_t i = 0; i < n; ++i)
                bytes[i] = data[i];
            const std::vector<std::uint8_t> expected = scrambled_reference(seed, bytes);
            const Bits got = scrambled(Scrambler{seed}, data);
            ASSERT_EQ(got.size(), n);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], expected[i]) << "seed " << seed << " n " << n << " bit " << i;
            // Bits past the end stay zero (the packed invariant).
            if (n % 64 != 0) {
                EXPECT_EQ(got.data()[n / 64] >> (n % 64), 0u);
            }
        }
    }
}

TEST(Scrambler, WhitensConstantInput)
{
    // The whole point (§6.2): even an all-zero payload must look random on
    // the air so that E[cos(theta - phi)] ~ 0.
    const Bits zeros(4096);
    const Bits whitened = scrambled(Scrambler{}, zeros);
    std::size_t ones = 0;
    for (std::size_t i = 0; i < whitened.size(); ++i)
        ones += whitened[i];
    const double balance = static_cast<double>(ones) / static_cast<double>(whitened.size());
    EXPECT_NEAR(balance, 0.5, 0.05);
}

TEST(Scrambler, BreaksRuns)
{
    Bits ones_in;
    for (int k = 0; k < 16; ++k)
        ones_in.append(~std::uint64_t{0}, 64);
    const Bits whitened = scrambled(Scrambler{}, ones_in);
    std::size_t longest_run = 0;
    std::size_t run = 0;
    for (std::size_t i = 0; i < whitened.size(); ++i) {
        run = (i > 0 && whitened[i] == whitened[i - 1]) ? run + 1 : 1;
        longest_run = std::max(longest_run, run);
    }
    EXPECT_LT(longest_run, 20u);
}

TEST(Scrambler, DifferentSeedsDifferentKeystreams)
{
    const Bits zeros(256);
    EXPECT_NE(scrambled(Scrambler{0x0001}, zeros), scrambled(Scrambler{0x8000}, zeros));
}

TEST(Scrambler, DeterministicAcrossCalls)
{
    Pcg32 rng{112};
    const Bits data = random_bits(128, rng);
    const Scrambler scrambler{0x4242};
    EXPECT_EQ(scrambled(scrambler, data), scrambled(scrambler, data));
}

TEST(Scrambler, ZeroSeedRejected)
{
    EXPECT_THROW(Scrambler{0}, std::invalid_argument);
}

TEST(Scrambler, EmptyInput)
{
    EXPECT_TRUE(scrambled(Scrambler{}, Bits{}).empty());
}

} // namespace
} // namespace anc::dsp

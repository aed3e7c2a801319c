#include "fec/hamming.h"

#include <gtest/gtest.h>

#include "util/bits.h"
#include "util/rng.h"

namespace anc::fec {
namespace {

TEST(Hamming74, AllNibblesRoundTrip)
{
    for (std::uint8_t nibble = 0; nibble < 16; ++nibble)
        EXPECT_EQ(hamming74_decode_codeword(hamming74_encode_nibble(nibble)), nibble);
}

TEST(Hamming74, CorrectsEverySingleBitError)
{
    for (std::uint8_t nibble = 0; nibble < 16; ++nibble) {
        const std::uint8_t codeword = hamming74_encode_nibble(nibble);
        for (int bit = 0; bit < 7; ++bit) {
            const auto corrupted = static_cast<std::uint8_t>(codeword ^ (1u << bit));
            EXPECT_EQ(hamming74_decode_codeword(corrupted), nibble)
                << "nibble " << int(nibble) << " bit " << bit;
        }
    }
}

TEST(Hamming74, CodewordsHaveMinDistanceThree)
{
    for (std::uint8_t x = 0; x < 16; ++x) {
        for (std::uint8_t y = 0; y < 16; ++y) {
            if (x == y)
                continue;
            const std::uint8_t diff =
                hamming74_encode_nibble(x) ^ hamming74_encode_nibble(y);
            EXPECT_GE(__builtin_popcount(diff), 3);
        }
    }
}

TEST(Hamming74, SequenceRoundTrip)
{
    Pcg32 rng{201};
    const Bits data = random_bits(400, rng); // multiple of 4
    const Bits coded = hamming74_encode(data);
    EXPECT_EQ(coded.size(), data.size() / 4 * 7);
    EXPECT_EQ(hamming74_decode(coded), data);
}

TEST(Hamming74, SequencePadsToNibble)
{
    const Bits data{1, 0, 1}; // padded to 1010? no: 1,0,1,0-pad
    const Bits coded = hamming74_encode(data);
    EXPECT_EQ(coded.size(), 7u);
    const Bits decoded = hamming74_decode(coded);
    ASSERT_EQ(decoded.size(), 4u);
    EXPECT_EQ(decoded[0], 1);
    EXPECT_EQ(decoded[1], 0);
    EXPECT_EQ(decoded[2], 1);
    EXPECT_EQ(decoded[3], 0); // the pad
}

TEST(Hamming74, CorrectsScatteredErrors)
{
    Pcg32 rng{202};
    const Bits data = random_bits(280, rng);
    Bits coded = hamming74_encode(data);
    // One error per codeword: all must be corrected.
    for (std::size_t block = 0; block + 7 <= coded.size(); block += 7)
        coded.flip(block + (block / 7) % 7);
    EXPECT_EQ(hamming74_decode(coded), data);
}

TEST(Hamming74, DecodeRejectsBadLength)
{
    EXPECT_THROW(hamming74_decode(Bits(8)), std::invalid_argument);
}

} // namespace
} // namespace anc::fec

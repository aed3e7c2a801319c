#include "util/crc.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "util/bits.h"
#include "util/rng.h"

namespace anc {
namespace {

TEST(Crc32, KnownVector)
{
    // CRC-32/IEEE of the ASCII string "123456789" is 0xCBF43926.  The
    // reflected algorithm consumes each byte least-significant-bit first.
    const std::vector<std::uint8_t> ascii{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    Bits bits;
    for (const std::uint8_t byte : ascii) {
        for (int bit = 0; bit < 8; ++bit)
            bits.push_back((byte >> bit) & 1u);
    }
    EXPECT_EQ(crc32(bits), 0xCBF43926u);
}

TEST(Crc32, EmptyInput)
{
    EXPECT_EQ(crc32(Bits{}), 0u); // init ^ final-xor cancel
}

TEST(Crc32, DetectsSingleBitFlip)
{
    Pcg32 rng{21};
    Bits bits = random_bits(512, rng);
    const std::uint32_t original = crc32(bits);
    for (std::size_t i = 0; i < bits.size(); i += 37) {
        bits.flip(i);
        EXPECT_NE(crc32(bits), original) << "flip at " << i;
        bits.flip(i);
    }
    EXPECT_EQ(crc32(bits), original);
}

TEST(Crc16, KnownVector)
{
    // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
    // The MSB-first algorithm consumes each byte most-significant-bit
    // first.
    const std::vector<std::uint8_t> ascii{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    Bits bits;
    for (const std::uint8_t byte : ascii)
        append_uint(bits, byte, 8);
    EXPECT_EQ(crc16(bits), 0x29B1u);
}

TEST(Crc16, DetectsBurstErrors)
{
    Pcg32 rng{22};
    Bits bits = random_bits(256, rng);
    const std::uint16_t original = crc16(bits);
    // Flip a burst of up to 16 consecutive bits: CRC-16 must catch all
    // bursts shorter than its width.
    for (std::size_t burst = 1; burst <= 16; ++burst) {
        for (std::size_t i = 0; i < burst; ++i)
            bits.flip(64 + i);
        EXPECT_NE(crc16(bits), original) << "burst length " << burst;
        for (std::size_t i = 0; i < burst; ++i)
            bits.flip(64 + i);
    }
}

TEST(Crc16, DifferentDataDifferentCrc)
{
    Pcg32 rng{23};
    const Bits a = random_bits(128, rng);
    const Bits b = random_bits(128, rng);
    EXPECT_NE(crc16(a), crc16(b));
}

/// Bit-by-bit reference transcriptions of the historical byte-per-bit
/// loops.  The production functions run table-driven over packed words
/// (slice-by-8, then bytes, then bits); the table forms are the textbook
/// identities for the same polynomial division, and these pin them —
/// including the sub-byte tail and unaligned ranges — to the original,
/// bit for bit.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> bits)
{
    std::uint32_t crc = 0xffffffffu;
    for (const std::uint8_t bit : bits) {
        crc ^= static_cast<std::uint32_t>(bit & 1u);
        crc = (crc >> 1u) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    return ~crc;
}

std::uint16_t crc16_bitwise(std::span<const std::uint8_t> bits)
{
    std::uint16_t crc = 0xffffu;
    for (const std::uint8_t bit : bits) {
        const bool msb = (crc & 0x8000u) != 0;
        crc = static_cast<std::uint16_t>(crc << 1u);
        if (msb != ((bit & 1u) != 0))
            crc ^= 0x1021u;
    }
    return crc;
}

std::vector<std::uint8_t> byte_per_bit(const Bits& bits, std::size_t from, std::size_t count)
{
    std::vector<std::uint8_t> out(count);
    for (std::size_t i = 0; i < count; ++i)
        out[i] = bits[from + i];
    return out;
}

TEST(Crc, TableDrivenMatchesBitwiseReference)
{
    Pcg32 rng{24};
    for (const std::size_t length :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
          std::size_t{9}, std::size_t{63}, std::size_t{64}, std::size_t{509},
          std::size_t{2048}, std::size_t{2053}}) {
        const Bits bits = random_bits(length, rng);
        const auto reference = byte_per_bit(bits, 0, length);
        EXPECT_EQ(crc32(bits), crc32_bitwise(reference)) << "length " << length;
        EXPECT_EQ(crc16(bits), crc16_bitwise(reference)) << "length " << length;
    }
}

TEST(Crc, UnalignedRangesMatchBitwiseReference)
{
    // Ranges starting anywhere inside a word, of random lengths that are
    // multiples of neither 8 nor 64 (the frame's payload sits at bit 160).
    Pcg32 rng{25};
    const Bits bits = random_bits(3000, rng);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t from = rng.next_u32() % 200;
        std::size_t count = rng.next_u32() % 2700;
        if (count % 8 == 0)
            ++count;
        const auto reference = byte_per_bit(bits, from, count);
        EXPECT_EQ(crc32(bits.data(), from, count), crc32_bitwise(reference))
            << from << "+" << count;
        EXPECT_EQ(crc16(bits.data(), from, count), crc16_bitwise(reference))
            << from << "+" << count;
    }
}

} // namespace
} // namespace anc

#include "phy/header.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace anc::phy {
namespace {

Bits header_bits(const Frame_header& header)
{
    Bits bits;
    bits.append(encode_header(header), 64);
    return bits;
}

/// The historical byte-per-bit encoder: MSB-first fields, then the
/// MSB-first CRC-16-CCITT of the 48 field bits, computed bit by bit.
std::vector<std::uint8_t> header_reference(const Frame_header& header)
{
    std::vector<std::uint8_t> bits;
    const auto put = [&bits](std::uint64_t value, int width) {
        for (int bit = width - 1; bit >= 0; --bit)
            bits.push_back(static_cast<std::uint8_t>((value >> bit) & 1u));
    };
    put(header.src, 8);
    put(header.dst, 8);
    put(header.seq, 16);
    put(header.payload_bits, 16);
    std::uint16_t crc = 0xffff;
    for (const std::uint8_t bit : bits) {
        const bool msb = (crc & 0x8000u) != 0;
        crc = static_cast<std::uint16_t>(crc << 1u);
        if (msb != (bit != 0))
            crc ^= 0x1021u;
    }
    put(crc, 16);
    return bits;
}

TEST(Header, EncodeDecodeRoundTrip)
{
    Frame_header header;
    header.src = 3;
    header.dst = 7;
    header.seq = 4242;
    header.payload_bits = 1024;
    const Bits bits = header_bits(header);
    EXPECT_EQ(bits.size(), header_length);
    const auto decoded = decode_header(bits, 0);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, header);
}

TEST(Header, MatchesByteReferenceWireLayout)
{
    Pcg32 rng{412};
    for (int trial = 0; trial < 200; ++trial) {
        Frame_header header;
        header.src = static_cast<std::uint8_t>(rng.next_u32());
        header.dst = static_cast<std::uint8_t>(rng.next_u32());
        header.seq = static_cast<std::uint16_t>(rng.next_u32());
        header.payload_bits = static_cast<std::uint16_t>(rng.next_u32());
        const std::vector<std::uint8_t> expected = header_reference(header);
        const Bits bits = header_bits(header);
        for (std::size_t i = 0; i < header_length; ++i)
            ASSERT_EQ(bits[i], expected[i]) << "bit " << i;
    }
}

TEST(Header, AllFieldBoundaries)
{
    Frame_header header;
    header.src = 255;
    header.dst = 0;
    header.seq = 65535;
    header.payload_bits = 65535;
    const auto decoded = decode_header(encode_header(header));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, header);
}

TEST(Header, CrcRejectsCorruption)
{
    Frame_header header;
    header.src = 1;
    header.dst = 2;
    header.seq = 99;
    header.payload_bits = 500;
    Bits bits = header_bits(header);
    int rejected = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
        bits.flip(i);
        if (!decode_header(bits, 0))
            ++rejected;
        bits.flip(i);
    }
    // Every single-bit flip (including within the CRC itself) must be
    // rejected.
    EXPECT_EQ(rejected, static_cast<int>(bits.size()));
}

TEST(Header, ShortInputRejected)
{
    const Bits short_bits(32);
    EXPECT_FALSE(decode_header(short_bits, 0).has_value());
    EXPECT_FALSE(decode_header(header_bits(Frame_header{}), 1).has_value());
}

TEST(Header, RandomBitsRarelyValidate)
{
    Pcg32 rng{411};
    int accepted = 0;
    for (int i = 0; i < 2000; ++i) {
        const Bits bits = random_bits(header_length, rng);
        accepted += decode_header(bits, 0).has_value();
    }
    // 16-bit CRC: acceptance probability ~ 2^-16 per trial.
    EXPECT_LE(accepted, 1);
}

} // namespace
} // namespace anc::phy

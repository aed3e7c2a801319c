#include "phy/frame.h"

#include <gtest/gtest.h>

#include <vector>

#include "phy/pilot.h"
#include "util/rng.h"

namespace anc::phy {
namespace {

Frame_header test_header(std::uint16_t payload_bits)
{
    Frame_header header;
    header.src = 1;
    header.dst = 2;
    header.seq = 77;
    header.payload_bits = payload_bits;
    return header;
}

Bits framed(const Frame_header& header, const Bits& payload)
{
    Bits frame;
    build_frame(header, payload, frame);
    return frame;
}

Bits slice(const Bits& bits, std::size_t from, std::size_t count)
{
    Bits out;
    out.assign(bits, from, count);
    return out;
}

Bits payload_of(const Bits& bits, const Parsed_frame& parsed)
{
    return slice(bits, parsed.payload_pos, parsed.header.payload_bits);
}

using Byte_bits = std::vector<std::uint8_t>;

/// The historical byte-per-bit frame builder, with bit-serial CRCs.
Byte_bits frame_reference(const Frame_header& header, const Byte_bits& payload)
{
    const auto put = [](Byte_bits& bits, std::uint64_t value, int width) {
        for (int bit = width - 1; bit >= 0; --bit)
            bits.push_back(static_cast<std::uint8_t>((value >> bit) & 1u));
    };
    Byte_bits head;
    put(head, header.src, 8);
    put(head, header.dst, 8);
    put(head, header.seq, 16);
    put(head, header.payload_bits, 16);
    std::uint16_t crc16 = 0xffff;
    for (const std::uint8_t bit : head) {
        const bool msb = (crc16 & 0x8000u) != 0;
        crc16 = static_cast<std::uint16_t>(crc16 << 1u);
        if (msb != (bit != 0))
            crc16 ^= 0x1021u;
    }
    put(head, crc16, 16);
    std::uint32_t crc32 = 0xffffffffu;
    for (const std::uint8_t bit : payload) {
        crc32 ^= bit;
        crc32 = (crc32 >> 1u) ^ (0xedb88320u & (0u - (crc32 & 1u)));
    }
    Byte_bits crc;
    put(crc, ~crc32, 32);

    Byte_bits pilot;
    for (std::size_t i = 0; i < pilot_length; ++i)
        pilot.push_back(pilot_sequence()[i]);
    Byte_bits frame;
    for (const Byte_bits* field : std::initializer_list<const Byte_bits*>{&pilot, &head, &crc, &payload})
        frame.insert(frame.end(), field->begin(), field->end());
    for (const Byte_bits* field : std::initializer_list<const Byte_bits*>{&crc, &head, &pilot})
        frame.insert(frame.end(), field->rbegin(), field->rend());
    return frame;
}

TEST(Frame, LayoutLengths)
{
    EXPECT_EQ(frame_length(0), 320u);
    EXPECT_EQ(frame_length(1000), 1320u);
    const Frame_offsets o = frame_offsets(500);
    EXPECT_EQ(o.pilot, 0u);
    EXPECT_EQ(o.header, 64u);
    EXPECT_EQ(o.crc, 128u);
    EXPECT_EQ(o.payload, 160u);
    EXPECT_EQ(o.tail_crc, 660u);
    EXPECT_EQ(o.tail_header, 692u);
    EXPECT_EQ(o.tail_pilot, 756u);
    EXPECT_EQ(o.end, 820u);
}

TEST(Frame, BuildPlacesFields)
{
    Pcg32 rng{421};
    const Bits payload = random_bits(200, rng);
    const Bits frame = framed(test_header(200), payload);
    ASSERT_EQ(frame.size(), frame_length(200));

    const Frame_offsets o = frame_offsets(200);
    EXPECT_EQ(slice(frame, 0, 64), pilot_sequence());
    EXPECT_EQ(slice(frame, o.tail_pilot, 64), pilot_mirrored());
    EXPECT_EQ(slice(frame, o.payload, 200), payload);
}

TEST(Frame, BuildAndParseMatchByteReferenceOnRaggedLengths)
{
    // Word splices against the byte-per-bit builder, mirrored tail
    // included, on payload lengths that are multiples of neither 8 nor
    // 64; then parse at a ragged offset inside a longer stream.
    Pcg32 rng{428};
    for (const std::size_t n : {0, 1, 7, 63, 65, 101, 333, 1001, 2047, 2053}) {
        const Bits payload = random_bits(n, rng);
        Byte_bits payload_bytes;
        for (std::size_t i = 0; i < n; ++i)
            payload_bytes.push_back(payload[i]);
        Frame_header header = test_header(static_cast<std::uint16_t>(n));
        header.seq = static_cast<std::uint16_t>(rng.next_u32());
        const Byte_bits expected = frame_reference(header, payload_bytes);
        const Bits frame = framed(header, payload);
        ASSERT_EQ(frame.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i)
            ASSERT_EQ(frame[i], expected[i]) << "n " << n << " bit " << i;

        const std::size_t lead = 1 + rng.next_u32() % 97;
        Bits stream = random_bits(lead, rng);
        stream.append(frame);
        const auto parsed = parse_frame_at(stream, lead);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->header, header);
        EXPECT_TRUE(parsed->crc_ok);
        EXPECT_EQ(payload_of(stream, *parsed), payload);
    }
}

TEST(Frame, ParseRoundTrip)
{
    Pcg32 rng{422};
    const Bits payload = random_bits(333, rng);
    const Frame_header header = test_header(333);
    const Bits frame = framed(header, payload);
    const auto parsed = parse_frame_at(frame, 0);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->header, header);
    EXPECT_EQ(payload_of(frame, *parsed), payload);
    EXPECT_TRUE(parsed->crc_ok);
}

TEST(Frame, CrcReportsPayloadCorruption)
{
    Pcg32 rng{427};
    const Bits payload = random_bits(200, rng);
    Bits frame = framed(test_header(200), payload);
    const Frame_offsets o = frame_offsets(200);
    frame.flip(o.payload + 77);
    const auto parsed = parse_frame_at(frame, 0);
    ASSERT_TRUE(parsed.has_value()); // header intact, frame parses
    EXPECT_FALSE(parsed->crc_ok);    // but the payload check flags it
}

TEST(Frame, ParseWithLeadingGarbage)
{
    Pcg32 rng{423};
    const Bits payload = random_bits(64, rng);
    const Bits frame = framed(test_header(64), payload);
    Bits stream = random_bits(50, rng);
    stream.append(frame);
    const auto parsed = parse_frame_at(stream, 50);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(payload_of(stream, *parsed), payload);
}

TEST(Frame, ParseRejectsTruncatedFrame)
{
    Pcg32 rng{424};
    const Bits payload = random_bits(100, rng);
    Bits frame = framed(test_header(100), payload);
    frame.resize(150); // cut inside the payload
    EXPECT_FALSE(parse_frame_at(frame, 0).has_value());
}

TEST(Frame, ParseRejectsCorruptHeader)
{
    Pcg32 rng{425};
    const Bits payload = random_bits(100, rng);
    Bits frame = framed(test_header(100), payload);
    frame.flip(70); // inside the header
    EXPECT_FALSE(parse_frame_at(frame, 0).has_value());
}

TEST(Frame, ReversedFrameIsAValidFrameWithReversedPayload)
{
    // The mirror structure (§7.4): a time-reversed frame parses as a
    // frame whose payload is reversed.  Its CRC field refers to the
    // *forward* payload, so crc_ok is false in the reversed domain —
    // which is fine: backward decoding is an ANC path and ignores it.
    Pcg32 rng{426};
    const Bits payload = random_bits(128, rng);
    const Frame_header header = test_header(128);
    const Bits reversed_frame = mirrored(framed(header, payload));
    const auto parsed = parse_frame_at(reversed_frame, 0);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->header, header);
    EXPECT_EQ(payload_of(reversed_frame, *parsed), mirrored(payload));
    EXPECT_FALSE(parsed->crc_ok);
}

TEST(Frame, EmptyPayload)
{
    const Bits frame = framed(test_header(0), Bits{});
    EXPECT_EQ(frame.size(), 320u);
    const auto parsed = parse_frame_at(frame, 0);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->payload_pos, 160u);
    EXPECT_TRUE(parsed->crc_ok);
}

} // namespace
} // namespace anc::phy

#include "net/cope.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace anc::net {
namespace {

Packet make_packet(std::uint8_t src, std::uint8_t dst, std::uint16_t seq,
                   std::size_t bits, std::uint64_t seed)
{
    Pcg32 rng{seed};
    Packet packet;
    packet.src = src;
    packet.dst = dst;
    packet.seq = seq;
    packet.payload = random_bits(bits, rng);
    return packet;
}

TEST(Cope, EncodeParseRoundTrip)
{
    const Packet a = make_packet(1, 3, 10, 256, 1201);
    const Packet b = make_packet(3, 1, 20, 256, 1202);
    const Bits coded = cope_encode(a, b);
    EXPECT_EQ(coded.size(), 128u + 256u);
    const auto parsed = cope_parse(coded);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->first, header_for(a));
    EXPECT_EQ(parsed->second, header_for(b));
}

TEST(Cope, DecodeRecoverEachSide)
{
    const Packet a = make_packet(1, 3, 10, 300, 1203);
    const Packet b = make_packet(3, 1, 20, 300, 1204);
    const auto parsed = cope_parse(cope_encode(a, b));
    ASSERT_TRUE(parsed.has_value());

    // Alice knows a, wants b.
    const auto got_b = cope_decode(*parsed, header_for(a), a.payload);
    ASSERT_TRUE(got_b.has_value());
    EXPECT_EQ(*got_b, b);
    // Bob knows b, wants a.
    const auto got_a = cope_decode(*parsed, header_for(b), b.payload);
    ASSERT_TRUE(got_a.has_value());
    EXPECT_EQ(*got_a, a);
}

TEST(Cope, UnequalLengthsZeroPad)
{
    const Packet a = make_packet(1, 3, 10, 100, 1205);
    const Packet b = make_packet(3, 1, 20, 260, 1206);
    const auto parsed = cope_parse(cope_encode(a, b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->xored.size(), 260u);
    const auto got_b = cope_decode(*parsed, header_for(a), a.payload);
    ASSERT_TRUE(got_b.has_value());
    EXPECT_EQ(*got_b, b);
    const auto got_a = cope_decode(*parsed, header_for(b), b.payload);
    ASSERT_TRUE(got_a.has_value());
    EXPECT_EQ(*got_a, a);
}

TEST(Cope, UnknownPacketCannotDecode)
{
    const Packet a = make_packet(1, 3, 10, 128, 1207);
    const Packet b = make_packet(3, 1, 20, 128, 1208);
    const Packet c = make_packet(5, 6, 30, 128, 1209);
    const auto parsed = cope_parse(cope_encode(a, b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(cope_decode(*parsed, header_for(c), c.payload).has_value());
}

TEST(Cope, ParseRejectsShortPayload)
{
    EXPECT_FALSE(cope_parse(Bits(64)).has_value());
}

TEST(Cope, ParseRejectsCorruptEmbeddedHeader)
{
    const Packet a = make_packet(1, 3, 10, 64, 1210);
    const Packet b = make_packet(3, 1, 20, 64, 1211);
    Bits coded = cope_encode(a, b);
    coded.flip(10); // inside header A
    EXPECT_FALSE(cope_parse(coded).has_value());
}

TEST(Cope, ParseRejectsLengthMismatch)
{
    const Packet a = make_packet(1, 3, 10, 64, 1212);
    const Packet b = make_packet(3, 1, 20, 64, 1213);
    Bits coded = cope_encode(a, b);
    coded.push_back(0); // stray bit
    EXPECT_FALSE(cope_parse(coded).has_value());
}

TEST(Cope, BitErrorsInXorPropagateToOneSide)
{
    const Packet a = make_packet(1, 3, 10, 200, 1214);
    const Packet b = make_packet(3, 1, 20, 200, 1215);
    Bits coded = cope_encode(a, b);
    coded.flip(128 + 50); // one payload bit error on the air
    const auto parsed = cope_parse(coded);
    ASSERT_TRUE(parsed.has_value());
    const auto got_b = cope_decode(*parsed, header_for(a), a.payload);
    ASSERT_TRUE(got_b.has_value());
    EXPECT_EQ(hamming_distance(got_b->payload, b.payload), 1u);
}

} // namespace
} // namespace anc::net

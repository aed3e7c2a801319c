#include "core/sent_packet_buffer.h"

#include <gtest/gtest.h>

namespace anc {
namespace {

phy::Frame_header make_header(std::uint8_t src, std::uint8_t dst, std::uint16_t seq)
{
    phy::Frame_header header;
    header.src = src;
    header.dst = dst;
    header.seq = seq;
    header.payload_bits = 100;
    return header;
}

Stored_frame make_frame(std::uint8_t src, std::uint8_t dst, std::uint16_t seq)
{
    Stored_frame frame;
    frame.header = make_header(src, dst, seq);
    frame.frame_bits = Bits{1, 0, 1};
    return frame;
}

TEST(SentPacketBuffer, StoreAndLookup)
{
    Sent_packet_buffer buffer;
    buffer.store(make_frame(1, 2, 10));
    EXPECT_TRUE(buffer.contains(make_header(1, 2, 10)));
    const Stored_frame* found = buffer.lookup(make_header(1, 2, 10));
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->header.seq, 10);
}

TEST(SentPacketBuffer, LookupMissReturnsNull)
{
    Sent_packet_buffer buffer;
    buffer.store(make_frame(1, 2, 10));
    EXPECT_EQ(buffer.lookup(make_header(1, 2, 11)), nullptr);
    EXPECT_EQ(buffer.lookup(make_header(2, 1, 10)), nullptr);
    EXPECT_FALSE(buffer.contains(make_header(9, 9, 9)));
}

TEST(SentPacketBuffer, PayloadBitsFieldIgnoredInKey)
{
    // Identity is (src, dst, seq); a header decoded from the air may carry
    // the same identity with the true payload length.
    Sent_packet_buffer buffer;
    buffer.store(make_frame(1, 2, 10));
    phy::Frame_header probe = make_header(1, 2, 10);
    probe.payload_bits = 9999;
    EXPECT_TRUE(buffer.contains(probe));
}

TEST(SentPacketBuffer, OverwriteSameKey)
{
    Sent_packet_buffer buffer;
    Stored_frame first = make_frame(1, 2, 10);
    first.frame_bits = Bits{0, 0, 0};
    buffer.store(first);
    Stored_frame second = make_frame(1, 2, 10);
    second.frame_bits = Bits{1, 1, 1};
    buffer.store(second);
    EXPECT_EQ(buffer.size(), 1u);
    EXPECT_EQ(buffer.lookup(make_header(1, 2, 10))->frame_bits, (Bits{1, 1, 1}));
}

TEST(SentPacketBuffer, EvictsOldestBeyondCapacity)
{
    Sent_packet_buffer buffer{3};
    buffer.store(make_frame(1, 2, 1));
    buffer.store(make_frame(1, 2, 2));
    buffer.store(make_frame(1, 2, 3));
    buffer.store(make_frame(1, 2, 4));
    EXPECT_EQ(buffer.size(), 3u);
    EXPECT_FALSE(buffer.contains(make_header(1, 2, 1)));
    EXPECT_TRUE(buffer.contains(make_header(1, 2, 4)));
}

TEST(SentPacketBuffer, ZeroCapacityRejected)
{
    EXPECT_THROW(Sent_packet_buffer{0}, std::invalid_argument);
}

} // namespace
} // namespace anc

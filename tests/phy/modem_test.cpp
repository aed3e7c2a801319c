#include "phy/modem.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "channel/link.h"
#include "dsp/ops.h"
#include "util/rng.h"

namespace anc::phy {
namespace {

Frame_header make_header(std::uint16_t payload_bits, std::uint16_t seq = 1)
{
    Frame_header header;
    header.src = 10;
    header.dst = 20;
    header.seq = seq;
    header.payload_bits = payload_bits;
    return header;
}

Bits frame_bits_of(const Modem& modem, const Frame_header& header, const Bits& payload)
{
    Bits frame;
    modem.frame_bits(header, payload, frame);
    return frame;
}

TEST(Modem, LoopbackRoundTrip)
{
    Pcg32 rng{451};
    const Bits payload = random_bits(512, rng);
    const Modem modem;
    const dsp::Signal signal = modem.modulate_frame(make_header(512), payload);
    const auto frame = modem.receive(signal);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->header, make_header(512));
    EXPECT_EQ(frame->payload, payload);
    EXPECT_EQ(frame->pilot_errors, 0u);
}

TEST(Modem, RoundTripThroughDistortedChannel)
{
    Pcg32 rng{452};
    const Bits payload = random_bits(256, rng);
    const Modem modem;
    dsp::Signal signal = modem.modulate_frame(make_header(256), payload, 0.9);

    chan::Link_params params;
    params.gain = 0.2;
    params.phase = -2.2;
    params.delay = 17;
    signal = chan::Link_channel{params}.apply(signal);
    chan::Awgn noise{0.2 * 0.2 / 316.0, Pcg32{453}}; // ~25 dB post-attenuation
    noise.add_in_place(signal);

    const auto frame = modem.receive(signal);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->payload, payload);
}

TEST(Modem, FrameBitsAreWhitened)
{
    // A constant payload must not appear as a constant run on the air.
    const Bits zeros(600);
    const Modem modem;
    const Bits on_air = frame_bits_of(modem, make_header(600), zeros);
    const Frame_offsets o = frame_offsets(600);
    std::size_t ones = 0;
    for (std::size_t i = o.payload; i < o.tail_crc; ++i)
        ones += on_air[i];
    EXPECT_NEAR(static_cast<double>(ones) / 600.0, 0.5, 0.1);
}

TEST(Modem, DescrambleInvertsWhitening)
{
    Pcg32 rng{454};
    const Bits payload = random_bits(128, rng);
    const Modem modem;
    const Bits on_air = frame_bits_of(modem, make_header(128), payload);
    const Frame_offsets o = frame_offsets(128);
    Bits whitened;
    whitened.assign(on_air, o.payload, 128);
    EXPECT_NE(whitened, payload);
    modem.descramble(whitened);
    EXPECT_EQ(whitened, payload);
}

TEST(Modem, NoFrameInNoise)
{
    Pcg32 rng{455};
    dsp::Signal noise_only(2000, dsp::Sample{0.0, 0.0});
    chan::Awgn noise{1.0, Pcg32{456}};
    noise.add_in_place(noise_only);
    const Modem modem;
    EXPECT_FALSE(modem.receive(noise_only).has_value());
    (void)rng;
}

TEST(Modem, SurvivesSparseBitErrors)
{
    // Pilot tolerance: flips inside the pilot region shouldn't kill sync
    // as long as they stay under the tolerance.
    Pcg32 rng{457};
    const Bits payload = random_bits(64, rng);
    const Modem modem;
    Bits frame_bits = frame_bits_of(modem, make_header(64), payload);
    frame_bits.flip(2);  // pilot bit
    frame_bits.flip(40); // pilot bit
    const dsp::Signal signal = modem.modulate(frame_bits);
    const auto frame = modem.receive(signal);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->pilot_errors, 2u);
    EXPECT_EQ(frame->payload, payload);
}

TEST(Modem, HeaderCorruptionFailsReceive)
{
    Pcg32 rng{458};
    const Bits payload = random_bits(64, rng);
    const Modem modem;
    Bits frame_bits = frame_bits_of(modem, make_header(64), payload);
    frame_bits.flip(80); // header bit -> CRC mismatch
    EXPECT_FALSE(modem.receive(modem.modulate(frame_bits)).has_value());
}

TEST(Modem, ReportsPilotPosition)
{
    Pcg32 rng{460};
    const Bits payload = random_bits(64, rng);
    const Modem modem;
    dsp::Signal signal = modem.modulate_frame(make_header(64), payload);
    signal = dsp::delayed(signal, 50);
    const auto frame = modem.receive(signal);
    ASSERT_TRUE(frame.has_value());
    // 50 samples of leading silence put the pilot at bit position ~50.
    EXPECT_NEAR(static_cast<double>(frame->pilot_position), 50.0, 2.0);
}

TEST(Modem, PayloadCorruptionFailsReceive)
{
    // A clean receive must be verifiably clean (payload FCS).
    Pcg32 rng{459};
    const Bits payload = random_bits(64, rng);
    const Modem modem;
    Bits frame_bits = frame_bits_of(modem, make_header(64), payload);
    const Frame_offsets o = frame_offsets(64);
    frame_bits.flip(o.payload + 5);
    EXPECT_FALSE(modem.receive(modem.modulate(frame_bits)).has_value());
}

} // namespace
} // namespace anc::phy

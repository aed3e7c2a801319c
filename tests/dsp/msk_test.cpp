#include "dsp/msk.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numbers>
#include <vector>

#include "dsp/ops.h"
#include "util/bits.h"
#include "util/fastmath.h"
#include "util/phase.h"
#include "util/rng.h"

namespace anc::dsp {
namespace {

constexpr double pi = std::numbers::pi;

/// The historical byte-per-bit modulators, transcribed: the exact
/// profile's std::polar recurrence with its ±π/2 select, and the fast
/// profile's quadrant walk (every sample the initial one rotated by
/// ±i, one quadrant step per bit).
Signal historical_modulate(const std::vector<std::uint8_t>& bits, double amplitude,
                           double initial_phase, Math_profile profile)
{
    Signal out;
    if (profile == Math_profile::fast) {
        double s = 0.0;
        double c = 0.0;
        fast_sincos(initial_phase, s, c);
        const double re = amplitude * c;
        const double im = amplitude * s;
        const double quad_re[4] = {re, -im, -re, im};
        const double quad_im[4] = {im, re, -im, -re};
        out.push_back(Sample{re, im});
        unsigned quadrant = 0;
        for (const std::uint8_t bit : bits) {
            quadrant = (quadrant + (bit ? 1u : 3u)) & 3u;
            out.push_back(Sample{quad_re[quadrant], quad_im[quadrant]});
        }
        return out;
    }
    double phase = initial_phase;
    out.push_back(std::polar(amplitude, phase));
    bool unbounded = true;
    for (const std::uint8_t bit : bits) {
        const double stepped = phase + (bit ? pi / 2.0 : -pi / 2.0);
        phase = unbounded ? wrap_phase(stepped) : wrap_phase_bounded(stepped);
        unbounded = false;
        out.push_back(std::polar(amplitude, phase));
    }
    return out;
}

TEST(MskModulator, MatchesHistoricalByteLoop)
{
    // Both profiles, bit for bit, at lengths around the word seams and at
    // a full frame, from an initial phase in each quadrant (and two on
    // the axes, where a component is ±0 and its sign flips must match).
    Pcg32 rng{0x4d534b};
    const std::size_t lengths[] = {0, 1, 63, 64, 65, 127, 2368};
    const double phases[] = {0.3, 0.3 + pi / 2.0, 0.3 + pi, 0.3 + 1.5 * pi, 0.0, 7.5};
    for (const Math_profile profile : {Math_profile::exact, Math_profile::fast}) {
        for (const std::size_t n : lengths) {
            const Bits bits = random_bits(n, rng);
            std::vector<std::uint8_t> bytes(n);
            for (std::size_t i = 0; i < n; ++i)
                bytes[i] = bits[i];
            for (const double phase : phases) {
                const Signal expected = historical_modulate(bytes, 0.8, phase, profile);
                const Signal got = Msk_modulator{0.8, phase, profile}.modulate(bits);
                ASSERT_EQ(got.size(), expected.size());
                EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                                      expected.size() * sizeof(Sample)),
                          0)
                    << to_string(profile) << " n " << n << " phase " << phase;
            }
        }
    }
}

TEST(Msk, PhaseStepMapping)
{
    EXPECT_DOUBLE_EQ(msk_phase_step(1), pi / 2.0);
    EXPECT_DOUBLE_EQ(msk_phase_step(0), -pi / 2.0);
}

TEST(Msk, PaperWalkthroughExample)
{
    // §5.2: data 10 -> phases 0, pi/2, 0 (1 advances, 0 retreats).
    const Bits bits{1, 0};
    const Msk_modulator modulator{2.5, 0.0};
    const Signal signal = modulator.modulate(bits);
    ASSERT_EQ(signal.size(), 3u);
    EXPECT_NEAR(std::arg(signal[0]), 0.0, 1e-12);
    EXPECT_NEAR(std::arg(signal[1]), pi / 2.0, 1e-12);
    EXPECT_NEAR(std::arg(signal[2]), 0.0, 1e-12);
    for (const Sample& s : signal)
        EXPECT_NEAR(std::abs(s), 2.5, 1e-12); // constant envelope
}

TEST(Msk, RoundTripCleanChannel)
{
    Pcg32 rng{101};
    const Bits bits = random_bits(512, rng);
    const Msk_modulator modulator{1.0, 0.7};
    const Msk_demodulator demodulator;
    EXPECT_EQ(demodulator.demodulate(modulator.modulate(bits)), bits);
}

TEST(Msk, RoundTripIsChannelInvariant)
{
    // Demodulation must not care about attenuation h or phase shift gamma
    // (Eq. 1) — the core robustness claim of §5.3.
    Pcg32 rng{102};
    const Bits bits = random_bits(256, rng);
    const Msk_modulator modulator{1.0, 0.0};
    const Msk_demodulator demodulator;
    Signal signal = modulator.modulate(bits);
    signal = scaled(signal, 0.037);   // strong attenuation
    signal = rotated(signal, 2.1);    // arbitrary phase shift
    EXPECT_EQ(demodulator.demodulate(signal), bits);
}

TEST(Msk, SamplesPerBitIsOnePlusOne)
{
    const Msk_modulator modulator;
    EXPECT_EQ(modulator.modulate(Bits{}).size(), 1u);
    EXPECT_EQ(modulator.modulate(Bits{1, 0, 1}).size(), 4u);
}

TEST(Msk, PhaseDifferencesForBits)
{
    const Bits bits{1, 1, 0, 1, 0, 0};
    const auto diffs = phase_differences_for_bits(bits);
    ASSERT_EQ(diffs.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
        EXPECT_DOUBLE_EQ(diffs[i], bits[i] ? pi / 2.0 : -pi / 2.0);
}

TEST(Msk, SoftOutputMatchesHardDecisions)
{
    Pcg32 rng{103};
    const Bits bits = random_bits(64, rng);
    const Msk_modulator modulator{1.0, 1.3};
    const Msk_demodulator demodulator;
    const Signal signal = modulator.modulate(bits);
    const auto diffs = demodulator.phase_differences(signal);
    ASSERT_EQ(diffs.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
        EXPECT_NEAR(diffs[i], bits[i] ? pi / 2.0 : -pi / 2.0, 1e-9);
    }
}

TEST(Msk, DemodulateShortSignals)
{
    const Msk_demodulator demodulator;
    EXPECT_TRUE(demodulator.demodulate(Signal{}).empty());
    EXPECT_TRUE(demodulator.demodulate(Signal{Sample{1.0, 0.0}}).empty());
}

TEST(Msk, TimeReversedStreamDemodulatesToReversedBits)
{
    // The foundation of backward decoding (§7.4): reverse + conjugate
    // yields the bit sequence in reverse order.
    Pcg32 rng{104};
    const Bits bits = random_bits(128, rng);
    const Msk_modulator modulator{1.0, 0.4};
    const Msk_demodulator demodulator;
    const Signal reversed_signal = time_reversed(modulator.modulate(bits));
    EXPECT_EQ(demodulator.demodulate(reversed_signal), mirrored(bits));
}

TEST(Msk, InitialPhaseDoesNotAffectBits)
{
    Pcg32 rng{105};
    const Bits bits = random_bits(64, rng);
    const Msk_demodulator demodulator;
    for (const double phase : {0.0, 0.5, 1.0, 2.0, 3.0}) {
        const Msk_modulator modulator{1.0, phase};
        EXPECT_EQ(demodulator.demodulate(modulator.modulate(bits)), bits);
    }
}

} // namespace
} // namespace anc::dsp

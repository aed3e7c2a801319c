#include "dsp/sampling.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "dsp/msk.h"
#include "dsp/ops.h"
#include "util/bits.h"
#include "util/rng.h"

namespace anc::dsp {
namespace {

TEST(Sampling, UpsampleRepeatsSamples)
{
    const Signal in{{1.0, 0.0}, {0.0, 2.0}};
    const Signal out = upsampled(in, 3);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out[0], in[0]);
    EXPECT_EQ(out[2], in[0]);
    EXPECT_EQ(out[3], in[1]);
}

TEST(Sampling, DecimateInvertsUpsample)
{
    Pcg32 rng{161};
    Signal in;
    for (int i = 0; i < 50; ++i)
        in.push_back({rng.next_gaussian(), rng.next_gaussian()});
    for (const std::size_t factor : {2u, 4u, 8u}) {
        const Signal up = upsampled(in, factor);
        for (std::size_t phase = 0; phase < factor; ++phase) {
            const Signal down = decimated(up, factor, phase);
            ASSERT_EQ(down.size(), in.size());
            for (std::size_t i = 0; i < in.size(); ++i)
                EXPECT_EQ(down[i], in[i]);
        }
    }
}

TEST(Sampling, BoxcarAveragesWindow)
{
    const Signal in{{4.0, 0.0}, {0.0, 0.0}, {2.0, 0.0}};
    const Signal out = boxcar_filtered(in, 2);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_NEAR(out[0].real(), 4.0, 1e-12); // warm-up: single sample
    EXPECT_NEAR(out[1].real(), 2.0, 1e-12);
    EXPECT_NEAR(out[2].real(), 1.0, 1e-12);
}

TEST(Sampling, BoxcarSuppressesNoise)
{
    Pcg32 rng{162};
    Signal constant(4000, Sample{1.0, 0.0});
    chan::Awgn noise{0.5, rng};
    noise.add_in_place(constant);
    const Signal filtered = boxcar_filtered(constant, 8);
    // Residual noise power should drop by ~the filter length.
    double residual = 0.0;
    for (std::size_t i = 8; i < filtered.size(); ++i)
        residual += std::norm(filtered[i] - Sample{1.0, 0.0});
    residual /= static_cast<double>(filtered.size() - 8);
    EXPECT_LT(residual, 0.5 / 8.0 * 1.5);
}

TEST(Sampling, ZeroFactorRejected)
{
    EXPECT_THROW(upsampled(Signal{}, 0), std::invalid_argument);
    EXPECT_THROW(decimated(Signal{}, 0, 0), std::invalid_argument);
    EXPECT_THROW(boxcar_filtered(Signal{}, 0), std::invalid_argument);
    EXPECT_THROW(recover_symbol_phase(Signal{}, 0), std::invalid_argument);
}

TEST(Sampling, LatticeFitDiscriminatesMsk)
{
    Pcg32 rng{163};
    const Bits bits = random_bits(400, rng);
    const Msk_modulator modulator{1.0, 0.4};
    const Signal symbol_spaced = modulator.modulate(bits);
    EXPECT_LT(msk_lattice_fit(symbol_spaced), 0.01);

    // A random-phase stream fits badly.
    Signal junk;
    for (int i = 0; i < 400; ++i)
        junk.push_back(std::polar(1.0, rng.next_double() * 6.283));
    EXPECT_GT(msk_lattice_fit(junk), 0.4);
}

TEST(Sampling, ClockRecoveryFindsDelayPhase)
{
    // TX at 4 samples/symbol, channel adds a sub-symbol delay of d
    // samples; the recovered decimation phase must compensate it.
    Pcg32 rng{164};
    const Bits bits = random_bits(300, rng);
    const Msk_modulator modulator{1.0, 0.9};
    const std::size_t factor = 4;
    const Signal tx = upsampled(modulator.modulate(bits), factor);

    for (std::size_t delay = 0; delay < factor; ++delay) {
        Signal rx = dsp::delayed(tx, delay);
        chan::Awgn noise{chan::noise_power_for_snr_db(25.0), rng.fork(delay + 1)};
        noise.add_in_place(rx);
        const Signal filtered = boxcar_filtered(rx, factor);
        const std::size_t phase = recover_symbol_phase(filtered, factor);
        // The matched filter peaks at the *last* sample of each held
        // symbol: expected phase = (factor - 1 + delay) mod factor.
        EXPECT_EQ(phase, (factor - 1 + delay) % factor) << "delay " << delay;
    }
}

TEST(Sampling, EndToEndOversampledRoundTrip)
{
    // The full receive chain: oversample -> delay -> noise -> matched
    // filter -> clock recovery -> decimate -> demodulate.
    Pcg32 rng{165};
    const Bits bits = random_bits(600, rng);
    const Msk_modulator modulator{1.0, 1.8};
    const Msk_demodulator demodulator;
    const std::size_t factor = 8;

    Signal rx = dsp::delayed(upsampled(modulator.modulate(bits), factor), 5);
    chan::Awgn noise{chan::noise_power_for_snr_db(20.0), rng.fork(9)};
    noise.add_in_place(rx);

    const Signal filtered = boxcar_filtered(rx, factor);
    const std::size_t phase = recover_symbol_phase(filtered, factor);
    const Signal symbol_spaced = decimated(filtered, factor, phase);
    const Bits decoded = demodulator.demodulate(symbol_spaced);

    // The decimated stream may carry one warm-up sample before the first
    // full-symbol average (a real receiver locates data via the pilot);
    // align by the best small offset.
    double best_ber = 1.0;
    for (std::size_t offset = 0; offset <= 2 && offset < decoded.size(); ++offset) {
        const std::size_t common = std::min(decoded.size() - offset, bits.size());
        Bits tail;
        tail.assign(decoded, offset, common);
        Bits head;
        head.assign(bits, 0, common);
        best_ber = std::min(best_ber, bit_error_rate(tail, head));
    }
    EXPECT_LT(best_ber, 0.01);
}

} // namespace
} // namespace anc::dsp

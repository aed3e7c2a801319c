// Parameterized sweeps over the beyond-paper extensions: the generic-PSK
// decoding path (§4's claim) and the oversampling/clock-recovery chain
// (§2's requirement) must hold across their whole parameter ranges, not
// just at single points.

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "channel/link.h"
#include "core/interference_decoder.h"
#include "dsp/dpsk.h"
#include "dsp/msk.h"
#include "dsp/ops.h"
#include "dsp/sampling.h"
#include "util/bits.h"
#include "util/db.h"
#include "util/rng.h"

namespace anc {
namespace {

// ---- DQPSK interference decoding across SIR ---------------------------

class DqpskSirSweep : public ::testing::TestWithParam<double> {};

TEST_P(DqpskSirSweep, UnknownDqpskDecodesAcrossRelativeStrengths)
{
    const double sir_db = GetParam();
    Pcg32 rng{static_cast<std::uint64_t>(sir_db * 10 + 1000)};
    const Bits known_bits = random_bits(800, rng);
    const Bits unknown_bits = random_bits(800, rng);
    const double b = amplitude_from_db(sir_db);

    const dsp::Msk_modulator msk{1.0, rng.next_double() * 6.28};
    const dsp::Dqpsk_modulator dqpsk{b, rng.next_double() * 6.28};
    chan::Link_params drift;
    drift.phase_drift = 0.004;
    dsp::Signal mix = msk.modulate(known_bits);
    dsp::accumulate(mix, chan::Link_channel{drift}.apply(dqpsk.modulate(unknown_bits)), 0);
    chan::Awgn noise{chan::noise_power_for_snr_db(28.0), rng.fork(3)};
    noise.add_in_place(mix);

    const auto known_diffs = dsp::phase_differences_for_bits(known_bits);
    const Interference_decoder decoder;
    const auto result =
        decoder.decode_symbols(mix, known_diffs, 1.0, b, dsp::dqpsk_steps);
    Bits decoded;
    for (const std::size_t s : result.symbols) {
        const auto [b0, b1] = dsp::dqpsk_bits_for_symbol(s);
        decoded.push_back(b0);
        decoded.push_back(b1);
    }
    decoded.resize(unknown_bits.size());
    // DQPSK's pi/4 margins are half of MSK's, so allow more than Fig. 13's
    // MSK numbers, but the claim must hold: decodable across the range.
    EXPECT_LT(bit_error_rate(decoded, unknown_bits), 0.12) << "SIR " << sir_db;
}

INSTANTIATE_TEST_SUITE_P(Fig13Range, DqpskSirSweep,
                         ::testing::Values(-2.0, 0.0, 2.0, 4.0, 6.0));

// ---- Clock recovery across oversampling factors and delays ------------

struct Sampling_case {
    std::size_t factor;
    std::size_t delay;
};

class SamplingSweep : public ::testing::TestWithParam<Sampling_case> {};

TEST_P(SamplingSweep, RecoversClockAndBits)
{
    const auto [factor, delay] = GetParam();
    Pcg32 rng{factor * 100 + delay};
    const Bits bits = random_bits(400, rng);
    const dsp::Msk_modulator modulator{1.0, rng.next_double() * 6.28};
    const dsp::Msk_demodulator demodulator;

    dsp::Signal rx = dsp::delayed(dsp::upsampled(modulator.modulate(bits), factor), delay);
    chan::Awgn noise{chan::noise_power_for_snr_db(22.0), rng.fork(1)};
    noise.add_in_place(rx);

    const dsp::Signal filtered = dsp::boxcar_filtered(rx, factor);
    const std::size_t phase = dsp::recover_symbol_phase(filtered, factor);
    EXPECT_EQ(phase, (factor - 1 + delay) % factor);

    const Bits decoded = demodulator.demodulate(dsp::decimated(filtered, factor, phase));
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

INSTANTIATE_TEST_SUITE_P(FactorsAndDelays, SamplingSweep,
                         ::testing::Values(Sampling_case{2, 0}, Sampling_case{2, 1},
                                           Sampling_case{4, 0}, Sampling_case{4, 3},
                                           Sampling_case{8, 2}, Sampling_case{8, 7},
                                           Sampling_case{16, 9}));

// ---- Interference decoding survives oversampled front ends ------------

TEST(ExtensionIntegration, OversampledCollisionDecodesAfterClockRecovery)
{
    // The full stack: two oversampled MSK packets collide; the receiver
    // matched-filters, recovers the symbol clock, decimates, and runs the
    // symbol-spaced interference decoder of §6.
    Pcg32 rng{4242};
    const std::size_t factor = 4;
    const Bits known_bits = random_bits(600, rng);
    const Bits unknown_bits = random_bits(600, rng);
    const dsp::Msk_modulator mod_a{1.0, 0.4};
    const dsp::Msk_modulator mod_b{0.9, 1.9};

    chan::Link_params drift;
    drift.phase_drift = 0.001; // per *oversampled* tick
    dsp::Signal mix = dsp::upsampled(mod_a.modulate(known_bits), factor);
    dsp::accumulate(mix,
                    chan::Link_channel{drift}.apply(
                        dsp::upsampled(mod_b.modulate(unknown_bits), factor)),
                    0);
    chan::Awgn noise{chan::noise_power_for_snr_db(25.0), rng.fork(1)};
    noise.add_in_place(mix);

    const dsp::Signal filtered = dsp::boxcar_filtered(mix, factor);
    const std::size_t phase = dsp::recover_symbol_phase(filtered, factor);
    const dsp::Signal symbol_spaced = dsp::decimated(filtered, factor, phase);

    const auto known_diffs = dsp::phase_differences_for_bits(known_bits);
    const Interference_decoder decoder;
    // Skip the warm-up sample if the recovered phase sits before the
    // first full symbol average.
    const dsp::Signal aligned =
        dsp::slice(symbol_spaced, phase == factor - 1 ? 0 : 1, symbol_spaced.size());
    const auto result = decoder.decode(aligned, known_diffs, 1.0, 0.9);

    std::size_t errors = 0;
    std::size_t total = 0;
    for (std::size_t k = 0; k < unknown_bits.size() && k < result.bits.size(); ++k) {
        errors += (result.bits[k] != unknown_bits[k]);
        ++total;
    }
    ASSERT_GT(total, 500u);
    EXPECT_LT(static_cast<double>(errors) / static_cast<double>(total), 0.05);
}

} // namespace
} // namespace anc

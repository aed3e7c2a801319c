// Microbenchmarks for the ANC core: the Lemma 6.1 solver, amplitude
// estimators, the interference decoder, and the full receive pipeline.

#include <benchmark/benchmark.h>

#include "channel/awgn.h"
#include "channel/link.h"
#include "core/amplitude_estimator.h"
#include "core/anc_receiver.h"
#include "core/interference_decoder.h"
#include "core/phase_solver.h"
#include "core/relay.h"
#include "dsp/msk.h"
#include "dsp/ops.h"
#include "phy/modem.h"
#include "util/bits.h"
#include "util/rng.h"

namespace {

using namespace anc;

dsp::Signal make_mix(std::size_t bits, double a, double b, std::size_t offset)
{
    Pcg32 rng{11};
    const dsp::Msk_modulator mod_a{a, 0.2};
    const dsp::Msk_modulator mod_b{b, 1.4};
    chan::Link_params drift;
    drift.phase_drift = 0.004;
    dsp::Signal mix = mod_a.modulate(random_bits(bits, rng));
    dsp::accumulate(mix, chan::Link_channel{drift}.apply(mod_b.modulate(random_bits(bits, rng))),
                    offset);
    chan::Awgn noise{0.003, rng.fork(1)};
    noise.add_in_place(mix);
    return mix;
}

void bm_phase_solver(benchmark::State& state)
{
    const dsp::Sample y{0.9, 0.4};
    for (auto _ : state)
        benchmark::DoNotOptimize(solve_phases(y, 1.0, 0.8));
}
BENCHMARK(bm_phase_solver);

void bm_amplitude_mu_sigma(benchmark::State& state)
{
    const dsp::Signal mix = make_mix(2048, 1.0, 0.7, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(estimate_amplitudes(mix, 0.003));
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(bm_amplitude_mu_sigma);

void bm_amplitude_variance(benchmark::State& state)
{
    const dsp::Signal mix = make_mix(2048, 1.0, 0.7, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(estimate_amplitudes_by_variance(mix, 0.003));
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(bm_amplitude_variance);

void bm_interference_decode(benchmark::State& state)
{
    const auto bits = static_cast<std::size_t>(state.range(0));
    const dsp::Signal mix = make_mix(bits, 1.0, 0.9, 160);
    Pcg32 rng{12};
    const auto known_diffs = dsp::phase_differences_for_bits(random_bits(bits, rng));
    const Interference_decoder decoder;
    for (auto _ : state)
        benchmark::DoNotOptimize(decoder.decode(mix, known_diffs, 1.0, 0.9));
    state.SetItemsProcessed(state.iterations() * bits);
}
BENCHMARK(bm_interference_decode)->Arg(1024)->Arg(2048)->Arg(4096);

void bm_full_anc_receive(benchmark::State& state)
{
    // Full Algorithm 1 over a relay-forwarded Alice-Bob collision.
    const double noise_power = 0.003;
    Pcg32 rng{13};
    const phy::Modem modem;
    phy::Frame_header ha{1, 2, 1, 2048};
    phy::Frame_header hb{2, 1, 2, 2048};
    const Bits pa = random_bits(2048, rng);
    const Bits pb = random_bits(2048, rng);
    Bits fa;
    Bits fb;
    modem.frame_bits(ha, pa, fa);
    modem.frame_bits(hb, pb, fb);
    Sent_packet_buffer buffer;
    buffer.store({ha, fa});

    dsp::Signal mix;
    dsp::accumulate(mix, chan::Link_channel{{0.95, 0.3, 0, 0.002}}.apply(modem.modulate(fa, 0.1)), 0);
    dsp::accumulate(mix, chan::Link_channel{{0.9, -0.9, 0, -0.002}}.apply(modem.modulate(fb, 0.9)), 280);
    chan::Awgn relay_noise{noise_power, rng.fork(1)};
    relay_noise.add_in_place(mix);
    const auto fwd = amplify_and_forward(mix, noise_power, 1.0);
    dsp::Signal at_alice = chan::Link_channel{{0.95, 1.1, 0, 0.0}}.apply(*fwd);
    chan::Awgn alice_noise{noise_power, rng.fork(2)};
    alice_noise.add_in_place(at_alice);

    const Anc_receiver receiver{Anc_receiver_config{}, noise_power};
    for (auto _ : state) {
        const auto outcome = receiver.receive(at_alice, buffer);
        benchmark::DoNotOptimize(outcome);
    }
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(bm_full_anc_receive);

void bm_relay_forward(benchmark::State& state)
{
    const dsp::Signal mix = make_mix(2048, 0.9, 0.85, 280);
    for (auto _ : state)
        benchmark::DoNotOptimize(amplify_and_forward(mix, 0.003, 1.0));
    state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(bm_relay_forward);

} // namespace

BENCHMARK_MAIN();

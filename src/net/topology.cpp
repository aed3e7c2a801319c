#include "net/topology.h"

#include <numbers>

namespace anc::net {

namespace {

chan::Link_params link_with(const Link_spec& spec, const Link_fading& fading, Pcg32& rng)
{
    chan::Link_params params;
    params.gain = spec.gain;
    params.phase = rng.next_double() * 2.0 * std::numbers::pi;
    // Real radio pairs never share an oscillator: a few-ppm carrier
    // frequency offset makes the relative phase of any two signals drift.
    // The drift per symbol is tiny against MSK's +-pi/2 decision margins,
    // but it sweeps cos(theta - phi) across the circle — the assumption
    // behind the paper's amplitude estimator (§6.2).
    params.phase_drift = (rng.next_double() - 0.5) * 0.006;
    if (fading.model != chan::Gain_model::fixed) {
        // Fixed links consume exactly two draws, as before this field
        // existed — fading seeds are drawn only when a link fades, so
        // fixed-gain installs stay byte-identical across versions.
        params.gain_model = fading.model;
        params.coherence_block = fading.coherence_block;
        params.fading_seed = rng.next_u64();
    }
    params.detection_threshold_db = spec.detection_threshold_db;
    return params;
}

/// Link `a` and `b` both ways.
void add_pair(Topology& topology, chan::Node_id a, chan::Node_id b, double gain)
{
    topology.links.push_back({a, b, gain});
    topology.links.push_back({b, a, gain});
}

} // namespace

const Topology& alice_bob()
{
    using namespace node;
    static const Topology topology{
        .nodes = {alice, router, bob},
        .links = {{alice, router, 0.95},
                  {router, alice, 0.95},
                  {bob, router, 0.90},
                  {router, bob, 0.90}},
        .rng_stream = 0x0a11ce0bu,
        .flows = {{alice, {router}, bob}, {bob, {router}, alice}},
        .ber_series = {{alice, "ber_at_alice"}, {bob, "ber_at_bob"}},
        .alice_amplitude_node = alice,
        .bob_amplitude_node = bob,
    };
    return topology;
}

const Topology& x_topology()
{
    using namespace node;
    static const Topology topology = [] {
        Topology t;
        t.nodes = {n1, n2, n3, n4, n5};
        t.rng_stream = 0x0f2a9u;
        t.flows = {{n1, {n5}, n4, n2}, {n3, {n5}, n2, n4}};
        t.ber_series = {{n2, "ber_at_n2"}, {n4, "ber_at_n4"}};
        for (const chan::Node_id spoke : {n1, n2, n3, n4})
            add_pair(t, spoke, n5, 0.92);
        // The overhear links sit ~6 dB below a spoke (gain 0.5), so at
        // 20 dB SNR a snooped packet lands ~14 dB above the floor — under
        // the standard 15 dB carrier-sense threshold, which silently
        // zeroed every COPE delivery there (the demodulator itself is
        // fine at 14 dB).  A deliberate snooper listens lower by the
        // link's budget deficit: 15 − 6 = 9 dB, the
        // chan::agc_detection_threshold_db rule rounded to the
        // historical value.
        t.links.push_back({n1, n2, 0.50, 9.0});
        t.links.push_back({n3, n4, 0.50, 9.0});
        t.links.push_back({n3, n2, 0.25});
        t.links.push_back({n1, n4, 0.25});
        return t;
    }();
    return topology;
}

const Topology& chain()
{
    using namespace node;
    static const Topology topology = [] {
        Topology t;
        t.nodes = {n1, n2, n3, n4};
        t.rng_stream = 0xc4a17u;
        t.flows = {{n1, {n2, n3}, n4}};
        t.ber_series = {{n2, "ber_at_n2"}};
        for (const chan::Node_id n : {n1, n2, n3})
            add_pair(t, n, n + 1, 0.92);
        return t;
    }();
    return topology;
}

Topology with_gain_scaled(Topology topology, double factor)
{
    for (Link_spec& link : topology.links)
        link.gain *= factor;
    return topology;
}

void install(chan::Medium& medium, const Topology& topology, const Link_fading& fading,
             Pcg32& rng)
{
    for (const Link_spec& link : topology.links)
        medium.set_link(link.from, link.to, link_with(link, fading, rng));
}

} // namespace anc::net

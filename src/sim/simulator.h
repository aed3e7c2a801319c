// One simulator for every topology (§11.4–11.6): the three compared
// schemes, each written once over net::Topology data.
//
//   traditional — every flow routed hop by hop, one clean slot per hop
//                 (4 slots per packet pair on Alice-Bob and X, 3 per
//                 packet on the chain);
//   COPE        — two-flow relays, 3 slots: two clean uploads (each
//                 overheard by the other flow's destination when that
//                 node did not send it), one XOR broadcast;
//   ANC         — two-flow relays, 2 slots: a deliberate collision
//                 (overhearing destinations snoop it *under
//                 interference*, the capture decode that sometimes fails,
//                 §11.5), then amplify-and-forward; each destination
//                 cancels the packet it knows.  On the one-flow chain ANC
//                 is the pipelined schedule of §2(b): N2's forward to N3
//                 doubles as the trigger, then N1 (next packet) and N3
//                 (forward to N4) transmit together and N2 cancels N3's
//                 known signal — 2 slots per packet, and a lower BER than
//                 Alice-Bob's because nothing is amplified (Fig. 12(b)).
//
// Every scheme runs over the same sample-level channel substrate, so
// losses, bit errors, imperfect overlap and amplified relay noise emerge
// from the signal path rather than being injected.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/anc_receiver.h"
#include "net/topology.h"
#include "sim/metrics.h"
#include "util/stats.h"

namespace anc::sim {

struct Sim_config {
    std::size_t payload_bits = 2048;
    std::size_t exchanges = 25;     // packet pairs (chain: packets) per run
    double snr_db = 25.0;           // receiver SNR for a unit-power sender
    double alice_amplitude = 1.0;   // transmit amplitudes of the topology's
    double bob_amplitude = 1.0;     // amplitude nodes (Fig. 13 varies Bob's)
    net::Link_fading fading{};      // per-link gain dynamics (default: fixed)
    Anc_receiver_config receiver{}; // knobs for every receiver in the run
    /// Math profile for the whole run: medium noise, link rotations,
    /// modulators, and the interference decoder (dsp/math_profile.h).
    /// `exact` (the default) is byte-identical to the historical runs.
    dsp::Math_profile math_profile = dsp::Math_profile::exact;
    std::uint64_t seed = 1;
};

struct Sim_result {
    Run_metrics metrics;
    /// One series per net::Topology::ber_series entry (per-packet BER of
    /// the decodes at that node), plus "fade_magnitude" — |h| of every
    /// coherence block each transmission spanned — on fading runs only.
    std::map<std::string, Cdf> series;
    /// "overhear_attempts" / "overhear_failures" on topologies with
    /// overhearing.
    std::map<std::string, double> scalars;
};

/// The schemes `topology` supports, in canonical order: traditional
/// routing always; COPE and ANC on two flows crossing one relay; ANC's
/// pipelined schedule on one flow over two relays.
std::vector<std::string> schemes(const net::Topology& topology);

/// Run `scheme` over `topology`.  Deterministic in (topology, config);
/// throws std::invalid_argument for a scheme not in schemes(topology) or
/// a sender the topology does not list.
Sim_result run(const net::Topology& topology, std::string_view scheme,
               const Sim_config& config);

} // namespace anc::sim

// The paper's three canonical topologies (Figs. 1, 2, 11) as data.
//
// A topology is who hears whom (directed links with gains), which flows
// cross it, and who already knows which packet.  Alice-Bob (Fig. 1) is
// the X topology (Fig. 11) in which each destination is the other flow's
// sender, so it needs no overhearing; the chain (Fig. 2) is one flow over
// two relays.  sim/simulator.h runs every scheme over any of them.
//
// Every link gets an independent random phase shift (real channels do not
// share oscillator geometry); gains default to a mildly asymmetric,
// near-unity plan so the reproduced experiments run at the paper's
// operating SNR when transmit power is 1.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "channel/medium.h"
#include "util/rng.h"

namespace anc::net {

/// Per-link gain dynamics shared by a whole topology install.  The
/// default (`fixed`) is the paper's constant-gain channel; `rayleigh_block`
/// overlays Rayleigh block fading on every link (each link gets an
/// independent fading seed drawn from the install rng, so realizations
/// stay deterministic per scenario seed).
struct Link_fading {
    chan::Gain_model model = chan::Gain_model::fixed;
    /// Samples per coherence block under rayleigh_block (0 = quasi-static:
    /// one fade for the whole transmission).
    std::size_t coherence_block = 4096;
    /// Every link gain is multiplied by this (the mean_link_gain axis).
    double mean_link_gain = 1.0;
};

/// One directed link.  Pairs without a link are out of radio range.
struct Link_spec {
    chan::Node_id from = 0;
    chan::Node_id to = 0;
    double gain = 1.0;
    /// Per-link AGC detection threshold (chan::Link_params), consulted by
    /// a node snooping a *clean* transmission over this link; empty keeps
    /// the standard carrier-sense threshold.
    std::optional<double> detection_threshold_db{};
};

/// One flow: source -> relays... -> destination.
struct Flow_spec {
    chan::Node_id source = 0;
    std::vector<chan::Node_id> relays;
    chan::Node_id destination = 0;
    /// The node that snoops the source's clean transmission: the other
    /// flow's destination, when that node is not this flow's source
    /// (the X topology, §11.5).  Empty when the side information is the
    /// destination's own sent packet (Alice-Bob) or not needed (chain).
    std::optional<chan::Node_id> overheard_by{};
};

struct Topology {
    std::vector<chan::Node_id> nodes;
    /// Installed in this order: each link draws its phase, drift and
    /// fading seed from the install rng in turn, so the order is part of
    /// every seed's byte contract.
    std::vector<Link_spec> links;
    /// Stream id of the run's root rng (Pcg32{seed, rng_stream}).
    std::uint64_t rng_stream = 0;
    std::vector<Flow_spec> flows;
    /// Per-packet BER series: (decoding node, series name).
    std::vector<std::pair<chan::Node_id, std::string>> ber_series;
    /// Nodes that take the alice_amplitude / bob_amplitude axes (Fig. 13);
    /// every other node transmits at unit amplitude.
    std::optional<chan::Node_id> alice_amplitude_node{};
    std::optional<chan::Node_id> bob_amplitude_node{};
};

/// Node ids of the builtin topologies: Alice-Bob's (Fig. 1) and the
/// numbered nodes of the chain (Fig. 2) and the X (Fig. 11; N5 is its
/// router).
namespace node {
inline constexpr chan::Node_id alice = 1;
inline constexpr chan::Node_id router = 2;
inline constexpr chan::Node_id bob = 3;
inline constexpr chan::Node_id n1 = 1;
inline constexpr chan::Node_id n2 = 2;
inline constexpr chan::Node_id n3 = 3;
inline constexpr chan::Node_id n4 = 4;
inline constexpr chan::Node_id n5 = 5;
} // namespace node

/// Fig. 1: Alice (1) <-> Router (2) <-> Bob (3); Alice and Bob are out of
/// range of each other.
const Topology& alice_bob();

/// Fig. 11: N1 -> N4 and N3 -> N2 through the router N5.  N2 overhears
/// N1 and N4 overhears N3 over weak links that carry a lowered detection
/// threshold; the weak cross links N3 -> N2 and N1 -> N4 make the other
/// sender audible while overhearing (the cause of §11.5's losses).
const Topology& x_topology();

/// Fig. 2: N1 -> N2 -> N3 -> N4; adjacent nodes are linked both ways,
/// nodes two or more hops apart are out of range (§2(b)).
const Topology& chain();

/// Install every link of `topology` into `medium`.
void install(chan::Medium& medium, const Topology& topology, const Link_fading& fading,
             Pcg32& rng);

} // namespace anc::net

#include "sim/simulator.h"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "channel/awgn.h"
#include "channel/medium.h"
#include "core/relay.h"
#include "core/trigger.h"
#include "dsp/workspace.h"
#include "net/cope.h"
#include "net/node.h"
#include "net/packet.h"
#include "util/bits.h"

namespace anc::sim {

namespace {

constexpr std::size_t rx_guard = 64; // trailing noise so detectors see the edge
constexpr Trigger_config trigger{};  // §7.2 backoff slots (core/trigger.h)

/// One run: the medium with the topology installed, a node per topology
/// node, the shared receiver, the flows, and the result being filled.
struct World {
    World(const net::Topology& topology, const Sim_config& config, Pcg32 root);

    net::Net_node& node(chan::Node_id id)
    {
        const auto it = std::find_if(nodes.begin(), nodes.end(),
                                     [id](const net::Net_node& n) { return n.id() == id; });
        if (it == nodes.end())
            throw std::invalid_argument{"sim::run: sender " + std::to_string(id)
                                        + " is not in the topology"};
        return *it;
    }

    const net::Topology& topology;
    double noise_power;
    chan::Medium medium;
    std::vector<net::Net_node> nodes;
    Anc_receiver receiver;
    Pcg32 rng;
    std::vector<net::Flow> flows;
    Sim_result result;
    /// |h| per coherence block of every transmission (fading runs only),
    /// folded into the "fade_magnitude" series at the end.
    std::vector<double> fade_magnitudes;
    std::size_t overhear_attempts = 0;
    std::size_t overhear_failures = 0;
};

// The rng forks below are the byte contract of every seed: medium noise
// (1), link draws (2), the run's rng (3), then one traffic stream per flow
// (10, 11) — in this order, before any draw.
World::World(const net::Topology& topology, const Sim_config& config, Pcg32 root)
    : topology{topology},
      noise_power{chan::noise_power_for_snr_db(config.snr_db)},
      medium{noise_power, root.fork(1), config.math_profile},
      receiver{config.receiver, noise_power, config.math_profile}
{
    Pcg32 link_rng = root.fork(2);
    net::install(medium, topology, config.fading, link_rng);
    rng = root.fork(3);

    nodes.reserve(topology.nodes.size());
    for (const chan::Node_id id : topology.nodes) {
        phy::Modem_config modem;
        modem.math_profile = config.math_profile;
        if (id == topology.alice_amplitude_node)
            modem.amplitude = config.alice_amplitude;
        else if (id == topology.bob_amplitude_node)
            modem.amplitude = config.bob_amplitude;
        nodes.emplace_back(id, modem);
    }
    flows.reserve(topology.flows.size());
    for (std::size_t f = 0; f < topology.flows.size(); ++f) {
        const net::Flow_spec& spec = topology.flows[f];
        flows.emplace_back(static_cast<std::uint8_t>(spec.source),
                           static_cast<std::uint8_t>(spec.destination), config.payload_bits,
                           rng.fork(10 + f));
    }
    for (const auto& [at, name] : topology.ber_series)
        result.series[name];
}

/// The destination holding flow f's packet as side information: the other
/// flow's destination (two-flow topologies).
chan::Node_id holder_of(const World& world, std::size_t f)
{
    return world.topology.flows[1 - f].destination;
}

Cdf* ber_series_at(World& world, chan::Node_id at)
{
    for (const auto& [id, name] : world.topology.ber_series) {
        if (id == at)
            return &world.result.series.find(name)->second;
    }
    return nullptr;
}

void record_delivery(World& world, chan::Node_id at, const Bits& decoded, const Bits& truth)
{
    const double ber = bit_error_rate(decoded, truth);
    Run_metrics& metrics = world.result.metrics;
    ++metrics.packets_delivered;
    metrics.payload_bits_delivered += truth.size();
    metrics.packet_ber.add(ber);
    if (Cdf* side = ber_series_at(world, at))
        side->add(ber);
}

net::Packet packet_from_frame(phy::Received_frame&& frame)
{
    net::Packet packet;
    packet.src = frame.header.src;
    packet.dst = frame.header.dst;
    packet.seq = frame.header.seq;
    packet.payload = std::move(frame.payload);
    return packet;
}

bool identity_matches(const phy::Frame_header& header, const net::Packet& packet)
{
    return header.src == packet.src && header.dst == packet.dst && header.seq == packet.seq;
}

/// One clean (collision-free) transmission from `from` to `to`; returns
/// the decoded frame if the receiver got it.  Airtime is charged for the
/// transmission length regardless of success.  With `heard`, the
/// `overhearer` receives the same transmission first.
std::optional<phy::Received_frame> clean_hop(World& world, chan::Node_id from,
                                             chan::Node_id to, const net::Packet& packet,
                                             dsp::Signal* heard = nullptr,
                                             chan::Node_id overhearer = 0)
{
    dsp::Workspace& workspace = dsp::Workspace::current();
    auto signal = workspace.signal();
    world.node(from).transmit_into(packet, world.rng, *signal);
    const chan::Transmission txs[] = {{from, *signal, 0}};
    world.result.metrics.airtime_symbols += static_cast<double>(signal->size());
    world.medium.append_fade_magnitudes(from, to, signal->size(), world.fade_magnitudes);
    if (heard)
        world.medium.receive_into(overhearer, txs, rx_guard, *heard);
    auto received = workspace.signal();
    world.medium.receive_into(to, txs, rx_guard, *received);
    Receive_outcome outcome = world.receiver.receive(*received, empty_sent_packet_buffer());
    if (outcome.status != Receive_status::clean)
        return std::nullopt;
    return std::move(outcome.frame);
}

/// Charge a round of simultaneous transmissions: airtime is its span;
/// a two-packet round also records its overlap.
void charge_round(World& world, std::span<const chan::Transmission> on_air)
{
    std::size_t span_begin = on_air.front().start;
    std::size_t span_end = 0;
    for (const auto& tx : on_air) {
        span_begin = std::min(span_begin, tx.start);
        span_end = std::max(span_end, tx.start + tx.signal.size());
    }
    Run_metrics& metrics = world.result.metrics;
    metrics.airtime_symbols += static_cast<double>(span_end - span_begin);
    if (on_air.size() == 2) {
        metrics.overlaps.add(overlap_fraction(on_air[0].start, on_air[0].signal.size(),
                                              on_air[1].start, on_air[1].signal.size()));
    }
}

/// Charge the relay's broadcast to both destinations of a two-flow
/// topology: its airtime and each downlink's fades.
void charge_broadcast(World& world, chan::Node_id relay, std::size_t samples)
{
    world.result.metrics.airtime_symbols += static_cast<double>(samples);
    for (std::size_t f = 0; f < 2; ++f)
        world.medium.append_fade_magnitudes(relay, holder_of(world, f), samples,
                                            world.fade_magnitudes);
}

void run_traditional(World& world, const Sim_config& config)
{
    for (std::size_t i = 0; i < config.exchanges; ++i) {
        world.medium.set_fading_epoch(i); // fresh fade per exchange, shared across schemes
        for (std::size_t f = 0; f < world.flows.size(); ++f) {
            const net::Flow_spec& spec = world.topology.flows[f];
            const auto hop_target = [&](std::size_t k) {
                return k < spec.relays.size() ? spec.relays[k] : spec.destination;
            };
            const net::Packet packet = world.flows[f].next();
            ++world.result.metrics.packets_attempted;
            auto frame = clean_hop(world, spec.source, hop_target(0), packet);
            for (std::size_t k = 1; frame && k <= spec.relays.size(); ++k) {
                frame = clean_hop(world, spec.relays[k - 1], hop_target(k),
                                  packet_from_frame(std::move(*frame)));
            }
            if (frame && identity_matches(frame->header, packet))
                record_delivery(world, spec.destination, frame->payload, packet.payload);
        }
    }
}

void run_cope(World& world, const Sim_config& config)
{
    const auto& specs = world.topology.flows;
    // A node snooping a clean upload listens with its overhear link's AGC
    // detection threshold (chan::Link_params) in place of the standard
    // carrier-sense threshold.
    std::optional<Anc_receiver> snoop[2];
    for (std::size_t f = 0; f < 2; ++f) {
        if (!specs[f].overheard_by)
            continue;
        Anc_receiver_config snoop_config = config.receiver;
        const chan::Node_id from = specs[f].source;
        if (const auto threshold_db =
                world.medium.detection_threshold_db(from, *specs[f].overheard_by))
            snoop_config.packet_detector.energy_threshold_db = *threshold_db;
        snoop[f].emplace(snoop_config, world.noise_power, config.math_profile);
    }

    dsp::Workspace& workspace = dsp::Workspace::current();
    const chan::Node_id relay = specs[0].relays.front();
    std::uint16_t coded_seq = 1;
    for (std::size_t i = 0; i < config.exchanges; ++i) {
        world.medium.set_fading_epoch(i); // fresh fade per exchange, shared across schemes
        const net::Packet packets[2] = {world.flows[0].next(), world.flows[1].next()};
        world.result.metrics.packets_attempted += 2;

        // Two sequential uploads, each snooped by its overhearer if any.
        std::optional<phy::Received_frame> at_relay[2];
        std::optional<net::Packet> overheard[2];
        for (std::size_t f = 0; f < 2; ++f) {
            auto heard = workspace.signal();
            const auto overhearer = specs[f].overheard_by;
            at_relay[f] = clean_hop(world, specs[f].source, relay, packets[f],
                                    overhearer ? &*heard : nullptr, overhearer.value_or(0));
            if (!overhearer)
                continue;
            ++world.overhear_attempts;
            Receive_outcome outcome = snoop[f]->receive(*heard, empty_sent_packet_buffer());
            if (outcome.status == Receive_status::clean)
                overheard[f] = packet_from_frame(std::move(*outcome.frame));
            else
                ++world.overhear_failures;
        }
        if (!at_relay[0] || !at_relay[1])
            continue; // an upload failed; the coded broadcast is pointless

        // One XOR broadcast.
        net::Packet coded;
        coded.src = static_cast<std::uint8_t>(relay);
        coded.dst = 0xff;
        coded.seq = coded_seq++;
        coded.payload = net::cope_encode(packet_from_frame(std::move(*at_relay[0])),
                                         packet_from_frame(std::move(*at_relay[1])));
        auto signal = workspace.signal();
        world.node(relay).transmit_into(coded, world.rng, *signal);
        const chan::Transmission txs[] = {{relay, *signal, 0}};
        charge_broadcast(world, relay, signal->size());

        for (std::size_t f = 0; f < 2; ++f) {
            const net::Packet* known = specs[f].overheard_by
                                           ? (overheard[f] ? &*overheard[f] : nullptr)
                                           : &packets[f];
            if (!known)
                continue; // nothing to cancel: the destination does not listen
            const chan::Node_id at = holder_of(world, f);
            const net::Packet& wanted = packets[1 - f];
            auto received = workspace.signal();
            world.medium.receive_into(at, txs, rx_guard, *received);
            const Receive_outcome outcome =
                world.receiver.receive(*received, empty_sent_packet_buffer());
            if (outcome.status != Receive_status::clean)
                continue;
            const auto parsed = net::cope_parse(outcome.frame->payload);
            if (!parsed)
                continue;
            const auto other =
                net::cope_decode(*parsed, net::header_for(*known), known->payload);
            if (!other || !identity_matches(net::header_for(*other), wanted))
                continue;
            record_delivery(world, at, other->payload, wanted.payload);
        }
    }
}

void run_relay_anc(World& world, const Sim_config& config)
{
    const auto& specs = world.topology.flows;
    dsp::Workspace& workspace = dsp::Workspace::current();
    const chan::Node_id relay = specs[0].relays.front();
    for (std::size_t i = 0; i < config.exchanges; ++i) {
        world.medium.set_fading_epoch(i); // fresh fade per exchange, shared across schemes
        const net::Packet packets[2] = {world.flows[0].next(), world.flows[1].next()};
        world.result.metrics.packets_attempted += 2;

        // Round 1: triggered, deliberately colliding uploads (§7.6).
        const auto [delay_0, delay_1] = draw_distinct_delays(trigger, world.rng);
        auto signal_0 = workspace.signal();
        world.node(specs[0].source).transmit_into(packets[0], world.rng, *signal_0);
        auto signal_1 = workspace.signal();
        world.node(specs[1].source).transmit_into(packets[1], world.rng, *signal_1);
        const chan::Transmission round1[] = {{specs[0].source, *signal_0, delay_0},
                                             {specs[1].source, *signal_1, delay_1}};
        charge_round(world, round1);
        for (const auto& tx : round1)
            world.medium.append_fade_magnitudes(tx.from, relay, tx.signal.size(),
                                                world.fade_magnitudes);
        auto at_relay = workspace.signal();
        world.medium.receive_into(relay, round1, rx_guard, *at_relay);

        // Overhearing destinations snoop under interference with the
        // standard detector: lowering the threshold here would pull the
        // weak cross-link signal into the detection window and break the
        // capture decode — failures at the bottom of the band are the
        // §11.5 behavior, not the detector bug the COPE snoop fixes.
        for (std::size_t f = 0; f < 2; ++f) {
            if (!specs[f].overheard_by)
                continue;
            ++world.overhear_attempts;
            auto heard = workspace.signal();
            world.medium.receive_into(*specs[f].overheard_by, round1, rx_guard, *heard);
            Receive_outcome outcome =
                world.receiver.receive(*heard, empty_sent_packet_buffer());
            if (outcome.status == Receive_status::clean
                && identity_matches(outcome.frame->header, packets[f]))
                world.node(*specs[f].overheard_by)
                    .remember(packet_from_frame(std::move(*outcome.frame)));
            else
                ++world.overhear_failures;
        }

        // Round 2: the relay amplifies the raw interfered signal and
        // broadcasts it (§7.5) — no decoding at the relay.
        auto forwarded = workspace.signal();
        if (!amplify_and_forward_into(*at_relay, world.noise_power, 1.0, *forwarded))
            continue;
        const chan::Transmission round2[] = {{relay, *forwarded, 0}};
        charge_broadcast(world, relay, forwarded->size());

        for (std::size_t f = 0; f < 2; ++f) {
            const chan::Node_id at = holder_of(world, f);
            const net::Packet& wanted = packets[1 - f];
            auto received = workspace.signal();
            world.medium.receive_into(at, round2, rx_guard, *received);
            const Receive_outcome outcome =
                world.receiver.receive(*received, world.node(at).buffer());
            if (outcome.status == Receive_status::decoded_interference
                && identity_matches(outcome.frame->header, wanted))
                record_delivery(world, at, outcome.frame->payload, wanted.payload);
        }
    }
}

/// The chain's pipelined ANC (§2(b)): the one bespoke schedule.
void run_pipelined_anc(World& world, const Sim_config& config)
{
    const net::Flow_spec& spec = world.topology.flows.front();
    const chan::Node_id n1 = spec.source;
    const chan::Node_id n2 = spec.relays[0];
    const chan::Node_id n3 = spec.relays[1];
    const chan::Node_id n4 = spec.destination;
    Run_metrics& metrics = world.result.metrics;
    dsp::Workspace& workspace = dsp::Workspace::current();

    // Ground truth per sequence number, to measure end-to-end BER.
    std::map<std::uint16_t, Bits> truth;
    // The packet N2 currently holds (as received — bit errors propagate).
    std::optional<net::Packet> held;
    std::size_t produced = 0;
    const auto next_packet = [&]() {
        net::Packet packet = world.flows.front().next();
        truth.emplace(packet.seq, packet.payload);
        ++produced;
        ++metrics.packets_attempted;
        return packet;
    };

    std::uint64_t round = 0;
    while (produced < config.exchanges || held) {
        // The pipeline has no 1:1 exchange index; each loop iteration is
        // one logical round, so fades refresh per round.
        world.medium.set_fading_epoch(round++);
        if (!held) {
            // Pipeline bootstrap (or restart after a loss): a clean
            // N1 -> N2 hop.
            if (auto at_n2 = clean_hop(world, n1, n2, next_packet()))
                held = packet_from_frame(std::move(*at_n2));
            continue;
        }

        // Slot A: N2 forwards its held packet to N3 (clean); this
        // transmission carries the trigger for N1 and N3 (§7.6).
        const net::Packet current = std::move(*held);
        held.reset();
        auto at_n3 = clean_hop(world, n2, n3, current);

        // Slot B: N1 sends the next packet while N3 forwards `current` to
        // N4 — simultaneously, with distinct trigger slots.
        std::optional<net::Packet> next;
        if (produced < config.exchanges)
            next = next_packet();
        const auto [delay_1, delay_3] = draw_distinct_delays(trigger, world.rng);
        auto signal_1 = workspace.signal();
        auto signal_3 = workspace.signal();
        chan::Transmission on_air[2];
        std::size_t on_air_size = 0;
        if (next) {
            world.node(n1).transmit_into(*next, world.rng, *signal_1);
            on_air[on_air_size++] = {n1, *signal_1, delay_1};
        }
        if (at_n3) {
            world.node(n3).transmit_into(packet_from_frame(std::move(*at_n3)), world.rng,
                                         *signal_3);
            on_air[on_air_size++] = {n3, *signal_3, delay_3};
        }
        if (on_air_size == 0)
            continue;
        const std::span<const chan::Transmission> round_txs{on_air, on_air_size};
        charge_round(world, round_txs);

        // N4 hears only N3 (N1 is out of range) and decodes `current`.
        if (at_n3) {
            auto at_n4 = workspace.signal();
            world.medium.receive_into(n4, round_txs, rx_guard, *at_n4);
            const Receive_outcome outcome =
                world.receiver.receive(*at_n4, empty_sent_packet_buffer());
            if (outcome.status == Receive_status::clean) {
                const auto it = truth.find(outcome.frame->header.seq);
                if (it != truth.end())
                    record_delivery(world, n4, outcome.frame->payload, it->second);
            }
        }

        // N2 hears the collision; N3's half is known (N2 sent it in slot
        // A), so N2 decodes N1's new packet out of the interference.
        if (next) {
            auto at_n2 = workspace.signal();
            world.medium.receive_into(n2, round_txs, rx_guard, *at_n2);
            Receive_outcome outcome =
                world.receiver.receive(*at_n2, world.node(n2).buffer());
            const bool interference =
                outcome.status == Receive_status::decoded_interference;
            if ((interference || outcome.status == Receive_status::clean) && outcome.frame
                && outcome.frame->header.seq == next->seq) {
                if (Cdf* side = interference ? ber_series_at(world, n2) : nullptr)
                    side->add(bit_error_rate(outcome.frame->payload, next->payload));
                held = packet_from_frame(std::move(*outcome.frame));
            }
            // else: the new packet is lost; the pipeline restarts.
        }
    }
}

/// Which coded schedules a topology's flows admit: two flows crossing one
/// relay (COPE, collide-and-amplify ANC), one flow over two relays (the
/// pipelined ANC), or neither (traditional routing only).
enum class Shape { relay_pair, pipeline, routes_only };

Shape shape_of(const net::Topology& topology)
{
    const auto& flows = topology.flows;
    if (flows.size() == 2 && flows[0].relays.size() == 1
        && flows[1].relays == flows[0].relays)
        return Shape::relay_pair;
    if (flows.size() == 1 && flows[0].relays.size() == 2)
        return Shape::pipeline;
    return Shape::routes_only;
}

} // namespace

std::vector<std::string> schemes(const net::Topology& topology)
{
    switch (shape_of(topology)) {
    case Shape::relay_pair: return {"traditional", "cope", "anc"};
    case Shape::pipeline: return {"traditional", "anc"};
    case Shape::routes_only: break;
    }
    return {"traditional"};
}

Sim_result run(const net::Topology& topology, std::string_view scheme,
               const Sim_config& config)
{
    const Shape shape = shape_of(topology);
    const bool applies = scheme == "traditional"
                         || (scheme == "cope" && shape == Shape::relay_pair)
                         || (scheme == "anc" && shape != Shape::routes_only);
    if (!applies)
        throw std::invalid_argument{"sim::run: scheme '" + std::string{scheme}
                                    + "' does not apply to this topology"};
    World world{topology, config, Pcg32{config.seed, topology.rng_stream}};
    if (scheme == "traditional")
        run_traditional(world, config);
    else if (scheme == "cope")
        run_cope(world, config);
    else if (shape == Shape::relay_pair)
        run_relay_anc(world, config);
    else
        run_pipelined_anc(world, config);

    Sim_result& result = world.result;
    if (!world.fade_magnitudes.empty())
        result.series["fade_magnitude"].add_all(world.fade_magnitudes);
    const auto overheard = [](const net::Flow_spec& spec) {
        return spec.overheard_by.has_value();
    };
    if (std::any_of(topology.flows.begin(), topology.flows.end(), overheard)) {
        result.scalars["overhear_attempts"] = static_cast<double>(world.overhear_attempts);
        result.scalars["overhear_failures"] = static_cast<double>(world.overhear_failures);
    }
    return std::move(result);
}

} // namespace anc::sim

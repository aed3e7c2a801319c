#include "sim/simulator.h"

#include <gtest/gtest.h>

namespace anc::sim {
namespace {

Sim_config small_config(std::uint64_t seed)
{
    Sim_config config;
    config.payload_bits = 1024;
    config.exchanges = 6;
    config.seed = seed;
    return config;
}

/// The X topology with its two overhear links (N1 -> N2, N3 -> N4)
/// passed through `edit`.
template <class Edit>
net::Topology with_overhear_links(Edit edit)
{
    using namespace net::node;
    net::Topology topology = net::x_topology();
    for (net::Link_spec& link : topology.links) {
        if ((link.from == n1 && link.to == n2) || (link.from == n3 && link.to == n4))
            edit(link);
    }
    return topology;
}

TEST(XSim, TraditionalDeliversEverything)
{
    const Sim_result result = run(net::x_topology(), "traditional", small_config(1));
    EXPECT_EQ(result.metrics.packets_attempted, 12u);
    EXPECT_EQ(result.metrics.packets_delivered, 12u);
}

TEST(XSim, CopeDeliversNearlyEverything)
{
    const Sim_result result = run(net::x_topology(), "cope", small_config(2));
    // Overhearing happens on clean transmissions under COPE; losses should
    // be rare.
    EXPECT_GE(result.metrics.packets_delivered, 11u);
    EXPECT_LE(result.scalars.at("overhear_failures"), 1u);
}

TEST(XSim, CopeDeliversAtBottomOfBand)
{
    // Regression for the ROADMAP item "x_topology/cope delivers 0 packets
    // at 20 dB SNR": the overhear link (gain 0.5, ~6 dB below a spoke)
    // put the snooped packet *under* the default 15 dB detection
    // threshold at 20 dB SNR, so overhearing failed deterministically at
    // every seed and no COPE packet could ever be decoded.  The snoop
    // path now listens with a threshold lowered by the overhear link's
    // budget deficit.
    for (const std::uint64_t seed : {1ull, 2ull, 42ull}) {
        Sim_config config = small_config(seed);
        config.snr_db = 20.0;
        const Sim_result result = run(net::x_topology(), "cope", config);
        EXPECT_GT(result.metrics.packets_delivered, 0u) << "seed " << seed;
        EXPECT_GE(result.metrics.packets_delivered,
                  result.metrics.packets_attempted / 2)
            << "seed " << seed;
    }
}

TEST(XSim, SnoopThresholdDoesNotDisturbHighSnr)
{
    // At 25 dB the historical 15 dB threshold already overheard fine;
    // the lowered per-link snoop default must deliver at least as much
    // there.  Clearing the override restores the pre-fix behavior (the
    // snooper falls back to the standard carrier-sense threshold).
    const net::Topology historical = with_overhear_links(
        [](net::Link_spec& link) { link.detection_threshold_db.reset(); }); // pre-fix
    const Sim_result old_threshold = run(historical, "cope", small_config(2));
    const Sim_result new_threshold = run(net::x_topology(), "cope", small_config(2));
    EXPECT_GE(new_threshold.metrics.packets_delivered,
              old_threshold.metrics.packets_delivered);
    EXPECT_LE(new_threshold.scalars.at("overhear_failures"),
              old_threshold.scalars.at("overhear_failures"));
}

TEST(XSim, AgcRuleKeepsBottomOfBandOverhearing)
{
    // The general Medium-layer form of the 20 dB fix: derive the
    // overhear links' threshold from the AGC rule (base carrier-sense
    // threshold minus the link's budget deficit) instead of the rounded
    // historical 9 dB, and COPE must still deliver at 20 dB SNR.
    const net::Topology agc = with_overhear_links([](net::Link_spec& link) {
        link.detection_threshold_db = chan::agc_detection_threshold_db(
            phy::Packet_detector::Config{}.energy_threshold_db, link.gain);
    });
    for (const std::uint64_t seed : {1ull, 2ull, 42ull}) {
        Sim_config config = small_config(seed);
        config.snr_db = 20.0;
        const Sim_result result = run(agc, "cope", config);
        EXPECT_GT(result.metrics.packets_delivered, 0u) << "seed " << seed;
        EXPECT_GE(result.metrics.packets_delivered,
                  result.metrics.packets_attempted / 2)
            << "seed " << seed;
    }
}

TEST(XSim, AncDeliversMost)
{
    Sim_config config = small_config(3);
    config.exchanges = 10;
    const Sim_result result = run(net::x_topology(), "anc", config);
    EXPECT_EQ(result.metrics.packets_attempted, 20u);
    // Overhearing under interference occasionally fails (§11.5).
    EXPECT_GE(result.metrics.packets_delivered, 14u);
}

TEST(XSim, AncBeatsTraditional)
{
    const Sim_config config = small_config(4);
    const Sim_result anc = run(net::x_topology(), "anc", config);
    const Sim_result traditional = run(net::x_topology(), "traditional", config);
    const double g = gain(anc.metrics, traditional.metrics);
    EXPECT_GT(g, 1.2);
    EXPECT_LT(g, 2.0);
}

TEST(XSim, AncBeatsCope)
{
    Sim_config config = small_config(5);
    config.exchanges = 10;
    const Sim_result anc = run(net::x_topology(), "anc", config);
    const Sim_result cope = run(net::x_topology(), "cope", config);
    EXPECT_GT(gain(anc.metrics, cope.metrics), 1.0);
}

TEST(XSim, OverhearingFailuresTracked)
{
    Sim_config config = small_config(6);
    config.exchanges = 15;
    const Sim_result result = run(net::x_topology(), "anc", config);
    EXPECT_EQ(result.scalars.at("overhear_attempts"), 30u);
    // Failure rate should be modest but can be non-zero.
    const double failure_rate =
        result.scalars.at("overhear_failures") / result.scalars.at("overhear_attempts");
    EXPECT_LT(failure_rate, 0.4);
}

TEST(XSim, WeakerOverhearLinkHurtsDelivery)
{
    Sim_config good = small_config(7);
    good.exchanges = 12;
    const net::Topology bad = with_overhear_links(
        [](net::Link_spec& link) { link.gain = 0.30; }); // barely above the detector floor
    const Sim_result strong = run(net::x_topology(), "anc", good);
    const Sim_result weak = run(bad, "anc", good);
    EXPECT_GE(strong.metrics.packets_delivered, weak.metrics.packets_delivered);
}

TEST(XSim, DeterministicForSeed)
{
    const Sim_result a = run(net::x_topology(), "anc", small_config(8));
    const Sim_result b = run(net::x_topology(), "anc", small_config(8));
    EXPECT_EQ(a.metrics.packets_delivered, b.metrics.packets_delivered);
    EXPECT_EQ(a.scalars.at("overhear_failures"), b.scalars.at("overhear_failures"));
}

} // namespace
} // namespace anc::sim

#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "phy/frame.h"

namespace anc::sim {
namespace {

Sim_config small_config(std::uint64_t seed)
{
    Sim_config config;
    config.payload_bits = 1024;
    config.exchanges = 8;
    config.seed = seed;
    return config;
}

TEST(ChainSim, TraditionalDeliversEverything)
{
    const Sim_result result = run(net::chain(), "traditional", small_config(1));
    EXPECT_EQ(result.metrics.packets_attempted, 8u);
    EXPECT_EQ(result.metrics.packets_delivered, 8u);
    EXPECT_LT(result.metrics.mean_ber(), 0.001);
}

TEST(ChainSim, TraditionalUsesThreeSlotsPerPacket)
{
    const Sim_config config = small_config(2);
    const Sim_result result = run(net::chain(), "traditional", config);
    const double frame_symbols = static_cast<double>(phy::frame_length(1024) + 1);
    EXPECT_NEAR(result.metrics.airtime_symbols,
                3.0 * frame_symbols * static_cast<double>(config.exchanges), 1.0);
}

TEST(ChainSim, AncDeliversMostPackets)
{
    const Sim_result result = run(net::chain(), "anc", small_config(3));
    EXPECT_EQ(result.metrics.packets_attempted, 8u);
    EXPECT_GE(result.metrics.packets_delivered, 7u);
}

TEST(ChainSim, AncBeatsTraditional)
{
    const Sim_config config = small_config(4);
    const Sim_result anc = run(net::chain(), "anc", config);
    const Sim_result traditional = run(net::chain(), "traditional", config);
    const double g = gain(anc.metrics, traditional.metrics);
    // Paper: ~1.36 measured, 1.5 theoretical.
    EXPECT_GT(g, 1.15);
    EXPECT_LT(g, 1.55);
}

TEST(ChainSim, BerLowerThanAliceBob)
{
    // §11.6: the chain decodes at the collision point, skipping the
    // amplified-noise broadcast, so its BER is lower.  The effect is
    // driven by the relay re-amplifying its own receiver noise, so it is
    // measured at the lower end of the operating band (22 dB), where
    // noise — not decoder ambiguity — dominates the residual errors.
    Sim_config chain_config = small_config(5);
    chain_config.exchanges = 20;
    chain_config.snr_db = 22.0;
    const Sim_result chain = run(net::chain(), "anc", chain_config);

    Sim_config ab_config;
    ab_config.payload_bits = 1024;
    ab_config.exchanges = 20;
    ab_config.seed = 5;
    ab_config.snr_db = 22.0;
    const Sim_result ab = run(net::alice_bob(), "anc", ab_config);

    ASSERT_FALSE(chain.series.at("ber_at_n2").empty());
    ASSERT_FALSE(ab.metrics.packet_ber.empty());
    EXPECT_LT(chain.series.at("ber_at_n2").mean(), ab.metrics.packet_ber.mean() + 1e-9);
}

TEST(ChainSim, EndToEndPayloadsFaithful)
{
    Sim_config config = small_config(6);
    config.exchanges = 10;
    const Sim_result result = run(net::chain(), "anc", config);
    // Delivered packets' BER must be small: errors can only creep in via
    // the N2 interference decode and then propagate.
    EXPECT_LT(result.metrics.mean_ber(), 0.05);
}

TEST(ChainSim, CodedSchemesFollowTheTopologyShape)
{
    using Names = std::vector<std::string>;
    EXPECT_EQ(schemes(net::chain()), (Names{"traditional", "anc"}));
    EXPECT_EQ(schemes(net::alice_bob()), (Names{"traditional", "cope", "anc"}));
    EXPECT_THROW(run(net::chain(), "cope", small_config(8)), std::invalid_argument);

    // Cut to N1 -> N2 -> N4 the chain admits neither coded schedule, but
    // still routes (through an N2 -> N4 link it now needs).
    net::Topology short_chain = net::chain();
    short_chain.flows.front().relays = {net::node::n2};
    short_chain.links.push_back({net::node::n2, net::node::n4, 0.92});
    EXPECT_EQ(schemes(short_chain), Names{"traditional"});
    EXPECT_THROW(run(short_chain, "anc", small_config(8)), std::invalid_argument);
    EXPECT_EQ(run(short_chain, "traditional", small_config(8)).metrics.packets_delivered,
              8u);

    // A sender the topology does not list is refused.
    net::Topology stray = net::chain();
    stray.flows.front().source = 9;
    EXPECT_THROW(run(stray, "traditional", small_config(8)), std::invalid_argument);
}

TEST(ChainSim, DeterministicForSeed)
{
    const Sim_result a = run(net::chain(), "anc", small_config(7));
    const Sim_result b = run(net::chain(), "anc", small_config(7));
    EXPECT_EQ(a.metrics.packets_delivered, b.metrics.packets_delivered);
    EXPECT_DOUBLE_EQ(a.metrics.airtime_symbols, b.metrics.airtime_symbols);
}

} // namespace
} // namespace anc::sim

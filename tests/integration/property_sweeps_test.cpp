// Parameterized property sweeps (TEST_P): the system must keep its
// invariants across seeds, SNRs, payload sizes, and SIRs — not just at
// the default operating point.

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "util/db.h"

namespace anc::sim {
namespace {

// ---- Across seeds: determinism-independent invariants ----------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, AncAliceBobInvariants)
{
    Sim_config config;
    config.payload_bits = 1024;
    config.exchanges = 5;
    config.seed = GetParam();
    const Sim_result result = run(net::alice_bob(), "anc", config);

    // Never deliver more than attempted; airtime is positive; BER sane.
    EXPECT_LE(result.metrics.packets_delivered, result.metrics.packets_attempted);
    EXPECT_GT(result.metrics.airtime_symbols, 0.0);
    EXPECT_GE(result.metrics.mean_ber(), 0.0);
    EXPECT_LT(result.metrics.mean_ber(), 0.2);
    // Majority of packets decode at 25 dB.
    EXPECT_GE(result.metrics.delivery_rate(), 0.7);
    // Overlap forced into (0, 1): never complete, never empty.
    if (!result.metrics.overlaps.empty()) {
        EXPECT_GT(result.metrics.overlaps.min(), 0.0);
        EXPECT_LT(result.metrics.overlaps.max(), 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u));

// ---- Across SNR: graceful degradation ---------------------------------

class SnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(SnrSweep, AncDegradesGracefully)
{
    Sim_config config;
    config.payload_bits = 1024;
    config.exchanges = 5;
    config.seed = 7;
    config.snr_db = GetParam();
    const Sim_result result = run(net::alice_bob(), "anc", config);
    EXPECT_LE(result.metrics.packets_delivered, result.metrics.packets_attempted);
    if (config.snr_db >= 20.0) {
        EXPECT_GE(result.metrics.delivery_rate(), 0.7) << "snr " << config.snr_db;
        EXPECT_LT(result.metrics.mean_ber(), 0.12) << "snr " << config.snr_db;
    }
}

INSTANTIATE_TEST_SUITE_P(OperatingRange, SnrSweep,
                         ::testing::Values(20.0, 25.0, 30.0, 35.0, 40.0));

TEST_P(SnrSweep, TraditionalRoutingRobust)
{
    Sim_config config;
    config.payload_bits = 512;
    config.exchanges = 4;
    config.seed = 8;
    config.snr_db = GetParam();
    const Sim_result result = run(net::alice_bob(), "traditional", config);
    EXPECT_EQ(result.metrics.packets_delivered, result.metrics.packets_attempted);
    EXPECT_LT(result.metrics.mean_ber(), 0.01);
}

// ---- Across payload sizes ---------------------------------------------

class PayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSweep, AncWorksAcrossFrameSizes)
{
    Sim_config config;
    config.payload_bits = GetParam();
    config.exchanges = 4;
    config.seed = 9;
    const Sim_result result = run(net::alice_bob(), "anc", config);
    EXPECT_GE(result.metrics.delivery_rate(), 0.6) << "payload " << GetParam();
    EXPECT_LT(result.metrics.mean_ber(), 0.12) << "payload " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSweep,
                         ::testing::Values(1024u, 1536u, 2048u, 3072u, 4096u));

// ---- Across SIR (Fig. 13's axis) ---------------------------------------

class SirSweep : public ::testing::TestWithParam<double> {};

TEST_P(SirSweep, DecodableAcrossRelativeStrengths)
{
    // SIR (dB) for decoding *Bob* at Alice: positive means Bob's signal
    // is stronger at the receiver.
    const double sir_db = GetParam();
    Sim_config config;
    config.payload_bits = 1024;
    config.exchanges = 5;
    config.seed = 10;
    config.bob_amplitude = amplitude_from_db(sir_db);
    const Sim_result result = run(net::alice_bob(), "anc", config);
    ASSERT_FALSE(result.series.at("ber_at_alice").empty()) << "sir " << sir_db;
    // The paper's claim (§11.7): below 5% BER even at -3 dB SIR.
    EXPECT_LT(result.series.at("ber_at_alice").mean(), 0.08) << "sir " << sir_db;
}

INSTANTIATE_TEST_SUITE_P(Fig13Range, SirSweep,
                         ::testing::Values(-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0));

// ---- Chain invariants across seeds -------------------------------------

class ChainSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainSeedSweep, PipelineInvariants)
{
    Sim_config config;
    config.payload_bits = 1024;
    config.exchanges = 6;
    config.seed = GetParam();
    const Sim_result result = run(net::chain(), "anc", config);
    EXPECT_LE(result.metrics.packets_delivered, result.metrics.packets_attempted);
    EXPECT_GE(result.metrics.delivery_rate(), 0.6);
    EXPECT_LT(result.metrics.mean_ber(), 0.08);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainSeedSweep, ::testing::Values(1u, 2u, 3u, 4u, 5u));

} // namespace
} // namespace anc::sim

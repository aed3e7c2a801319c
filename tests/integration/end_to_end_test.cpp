// Cross-module integration checks: the paper's headline *relations* must
// hold on small runs (the benches reproduce the full-scale numbers), and
// the §11.3 headline gains must land within a tolerance declared before
// the check existed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "phy/frame.h"

#include "capacity/capacity.h"
#include "engine/engine.h"
#include "sim/simulator.h"
#include "util/db.h"

namespace anc::sim {
namespace {

TEST(EndToEnd, SchemeOrderingOnAliceBob)
{
    // ANC > COPE > traditional in throughput, as in §11.4.
    Sim_config config;
    config.payload_bits = 1024;
    config.exchanges = 10;
    config.seed = 42;
    const double anc = run(net::alice_bob(), "anc", config).metrics.throughput();
    const double cope = run(net::alice_bob(), "cope", config).metrics.throughput();
    const double traditional =
        run(net::alice_bob(), "traditional", config).metrics.throughput();
    EXPECT_GT(anc, cope);
    EXPECT_GT(cope, traditional);
}

TEST(EndToEnd, SlotRatiosApproximateTheory)
{
    // Airtime per delivered packet should approach the 2:3:4 slot pattern
    // of Fig. 1 (ANC pays extra for jitter).
    Sim_config config;
    config.payload_bits = 1024;
    config.exchanges = 10;
    config.seed = 43;
    const auto anc = run(net::alice_bob(), "anc", config);
    const auto cope = run(net::alice_bob(), "cope", config);
    const auto traditional = run(net::alice_bob(), "traditional", config);

    const double anc_air = anc.metrics.airtime_symbols
        / static_cast<double>(anc.metrics.packets_attempted);
    const double cope_air = cope.metrics.airtime_symbols
        / static_cast<double>(cope.metrics.packets_attempted);
    const double trad_air = traditional.metrics.airtime_symbols
        / static_cast<double>(traditional.metrics.packets_attempted);

    EXPECT_LT(anc_air, cope_air);
    EXPECT_LT(cope_air, trad_air);
    // Traditional is exactly 2 frames per packet; ANC must be within
    // (1, 1.35) frames per packet given jitter.
    const double frame_symbols = static_cast<double>(phy::frame_length(1024) + 1);
    EXPECT_NEAR(trad_air / frame_symbols, 2.0, 0.01);
    EXPECT_GT(anc_air / frame_symbols, 1.0);
    EXPECT_LT(anc_air / frame_symbols, 1.45);
}

TEST(EndToEnd, ChainGainBelowAliceBobGain)
{
    // Alice-Bob halves slots (gain -> 2), the chain cuts 3 to 2
    // (gain -> 1.5); the measured ordering must match.
    Sim_config ab_config;
    ab_config.payload_bits = 1024;
    ab_config.exchanges = 10;
    ab_config.seed = 44;
    const double ab_gain = gain(run(net::alice_bob(), "anc", ab_config).metrics,
                                run(net::alice_bob(), "traditional", ab_config).metrics);

    Sim_config chain_config;
    chain_config.payload_bits = 1024;
    chain_config.exchanges = 10;
    chain_config.seed = 44;
    const double chain_gain = gain(run(net::chain(), "anc", chain_config).metrics,
                                   run(net::chain(), "traditional", chain_config).metrics);

    EXPECT_GT(ab_gain, chain_gain);
    EXPECT_GT(chain_gain, 1.1);
}

TEST(EndToEnd, XGainSlightlyBelowAliceBob)
{
    // §11.5: overhearing losses shave a few points off the X gains.
    Sim_config ab_config;
    ab_config.payload_bits = 1024;
    ab_config.exchanges = 12;
    ab_config.seed = 45;
    const double ab_gain = gain(run(net::alice_bob(), "anc", ab_config).metrics,
                                run(net::alice_bob(), "traditional", ab_config).metrics);

    Sim_config x_config;
    x_config.payload_bits = 1024;
    x_config.exchanges = 12;
    x_config.seed = 45;
    const double x_gain = gain(run(net::x_topology(), "anc", x_config).metrics,
                               run(net::x_topology(), "traditional", x_config).metrics);

    EXPECT_LE(x_gain, ab_gain + 0.10);
    EXPECT_GT(x_gain, 1.1);
}

TEST(EndToEnd, MeasuredGainBelowCapacityBound)
{
    // The information-theoretic gain bound (2x) must dominate anything the
    // packet simulation achieves.
    Sim_config config;
    config.payload_bits = 1024;
    config.exchanges = 10;
    config.seed = 46;
    const double measured = gain(run(net::alice_bob(), "anc", config).metrics,
                                 run(net::alice_bob(), "traditional", config).metrics);
    const double theoretical = cap::capacity_gain(from_db(config.snr_db));
    EXPECT_LT(measured, 2.0);
    EXPECT_GT(theoretical, measured * 0.8); // same ballpark, theory above
}

TEST(EndToEnd, AncBerWellUnderFecBudget)
{
    // The FEC substrate must be able to absorb the residual BER the
    // decoder leaves: Hamming(7,4) corrects 1/7 ~ 14% worst-case isolated
    // errors, far above the observed means.
    Sim_config config;
    config.payload_bits = 1024;
    config.exchanges = 10;
    config.seed = 47;
    const auto result = run(net::alice_bob(), "anc", config);
    EXPECT_LT(result.metrics.mean_ber(), 0.08);
}

TEST(EndToEnd, HeadlineGainsWithinTenPercentOfThePaper)
{
    // §11.3's four throughput gains, measured as summary_table measures
    // them: every topology and scheme at 22 dB, 10 runs x 20 packets,
    // the exact profile, base seed 100, mean of the per-run paired
    // gains.  Tolerance |measured / paper - 1| <= 0.10, fixed before the
    // first measurement; a miss is reported, never re-seeded away.
    engine::Sweep_grid grid;
    grid.math_profiles = {dsp::Math_profile::exact};
    grid.scenarios = {"alice_bob", "x_topology", "chain"};
    grid.snr_db = {22.0};
    grid.exchanges = {20};
    grid.repetitions = 10;
    engine::Executor_config exec;
    exec.base_seed = 100;
    const engine::Sweep_outcome outcome = engine::run_grid(grid, exec);

    struct Claim {
        const char* name;
        const char* scenario;
        const char* baseline;
        double paper;
    };
    const Claim claims[] = {
        {"Alice-Bob gain over traditional", "alice_bob", "traditional", 1.70},
        {"Alice-Bob gain over COPE", "alice_bob", "cope", 1.30},
        {"X gain over traditional", "x_topology", "traditional", 1.65},
        {"chain gain over traditional", "chain", "traditional", 1.36},
    };
    constexpr double tolerance = 0.10;
    for (const Claim& claim : claims) {
        const double measured = engine::paired_gain(outcome.tasks, outcome.points,
                                                    claim.scenario, "anc",
                                                    claim.baseline)
                                    .mean();
        std::printf("%-34s paper %.2f  measured %.3f  (%+.1f%%)\n", claim.name,
                    claim.paper, measured, 100.0 * (measured / claim.paper - 1.0));
        EXPECT_LE(std::abs(measured / claim.paper - 1.0), tolerance) << claim.name;
    }
}

} // namespace
} // namespace anc::sim

#include "phy/detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "channel/awgn.h"
#include "channel/link.h"
#include "dsp/energy_scan.h"
#include "dsp/msk.h"
#include "dsp/ops.h"
#include "util/bits.h"
#include "util/db.h"
#include "util/rng.h"

namespace anc::phy {
namespace {

constexpr double noise_power = 0.01; // SNR 20 dB for unit signals

dsp::Signal noisy(dsp::Signal signal, std::uint64_t seed, double power = noise_power)
{
    chan::Awgn noise{power, Pcg32{seed}};
    noise.add_in_place(signal);
    return signal;
}

dsp::Signal msk_burst(std::size_t bits_count, std::uint64_t seed, double amplitude = 1.0)
{
    Pcg32 rng{seed};
    const Bits bits = random_bits(bits_count, rng);
    const dsp::Msk_modulator modulator{amplitude, 0.0};
    return modulator.modulate(bits);
}

TEST(PacketDetector, FindsPacketInNoise)
{
    dsp::Signal stream(200, dsp::Sample{0.0, 0.0});
    const dsp::Signal burst = msk_burst(300, 431);
    dsp::accumulate(stream, burst, 200);
    stream.resize(stream.size() + 150, dsp::Sample{0.0, 0.0});
    stream = noisy(std::move(stream), 432);

    const Packet_detector detector{noise_power};
    const auto bounds = detector.detect(stream);
    ASSERT_TRUE(bounds.has_value());
    EXPECT_NEAR(static_cast<double>(bounds->begin), 200.0, 20.0);
    EXPECT_NEAR(static_cast<double>(bounds->end), 501.0, 20.0);
}

TEST(PacketDetector, PureNoiseIsNoPacket)
{
    dsp::Signal stream(1000, dsp::Sample{0.0, 0.0});
    stream = noisy(std::move(stream), 433);
    const Packet_detector detector{noise_power};
    EXPECT_FALSE(detector.detect(stream).has_value());
}

TEST(PacketDetector, WeakSignalBelowThresholdIgnored)
{
    // A signal only 10 dB above noise must not trip a 20 dB threshold.
    dsp::Signal stream(100, dsp::Sample{0.0, 0.0});
    const dsp::Signal burst = msk_burst(200, 434, std::sqrt(noise_power * 10.0));
    dsp::accumulate(stream, burst, 100);
    stream = noisy(std::move(stream), 435);
    const Packet_detector detector{noise_power};
    EXPECT_FALSE(detector.detect(stream).has_value());
}

TEST(PacketDetector, ShortStreamHandled)
{
    const Packet_detector detector{noise_power};
    EXPECT_FALSE(detector.detect(dsp::Signal(4, dsp::Sample{1.0, 0.0})).has_value());
}

TEST(PacketDetector, RejectsInvalidConfigAtConstruction)
{
    Packet_detector::Config zero_window;
    zero_window.window = 0;
    EXPECT_THROW((Packet_detector{noise_power, zero_window}), std::invalid_argument);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        Packet_detector::Config config;
        config.energy_threshold_db = bad;
        EXPECT_THROW((Packet_detector{noise_power, config}), std::invalid_argument)
            << bad;
    }
    EXPECT_NO_THROW((Packet_detector{noise_power, Packet_detector::Config{}}));
}

TEST(InterferenceDetector, RejectsInvalidConfigAtConstruction)
{
    Interference_detector::Config zero_window;
    zero_window.window = 0;
    EXPECT_THROW((Interference_detector{noise_power, zero_window}),
                 std::invalid_argument);
    Interference_detector::Config zero_run;
    zero_run.min_run = 0;
    EXPECT_THROW((Interference_detector{noise_power, zero_run}), std::invalid_argument);
    // A NaN threshold used to report "never interfered" silently.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        Interference_detector::Config config;
        config.variance_threshold_db = bad;
        EXPECT_THROW((Interference_detector{noise_power, config}),
                     std::invalid_argument)
            << bad;
    }
    EXPECT_NO_THROW((Interference_detector{noise_power, Interference_detector::Config{}}));
}

TEST(InterferenceDetector, CleanPacketNotInterfered)
{
    const dsp::Signal packet = noisy(msk_burst(600, 436), 437);
    const Interference_detector detector{noise_power};
    const Interference_report report = detector.analyze(packet);
    EXPECT_FALSE(report.interfered);
}

TEST(InterferenceDetector, CollisionDetectedWithOverlapRegion)
{
    // Packet A starts at 0; packet B (equal power) starts at 300.
    dsp::Signal mix = msk_burst(600, 438);
    const dsp::Signal b = dsp::rotated(msk_burst(600, 439), 0.9);
    dsp::accumulate(mix, b, 300);
    mix = noisy(std::move(mix), 440);

    const Interference_detector detector{noise_power};
    const Interference_report report = detector.analyze(mix);
    ASSERT_TRUE(report.interfered);
    // Overlap is [300, 601); allow window-size slop.
    EXPECT_NEAR(static_cast<double>(report.overlap_begin), 300.0, 80.0);
    EXPECT_GT(report.overlap_end, report.overlap_begin + 200);
}

TEST(InterferenceDetector, WeakInterfererStillDetected)
{
    // SIR +6 dB (interferer at quarter power) must still trip the
    // detector at SNR 20 dB.
    dsp::Signal mix = msk_burst(600, 441);
    const dsp::Signal b = dsp::scaled(dsp::rotated(msk_burst(600, 442), 1.7), 0.5);
    dsp::accumulate(mix, b, 200);
    mix = noisy(std::move(mix), 443);
    const Interference_detector detector{noise_power};
    EXPECT_TRUE(detector.analyze(mix).interfered);
}

TEST(InterferenceDetector, ShortInputNotInterfered)
{
    const Interference_detector detector{noise_power};
    EXPECT_FALSE(detector.analyze(dsp::Signal(10, dsp::Sample{1.0, 0.0})).interfered);
}

TEST(InterferenceDetector, EnvelopeMergesDriftDips)
{
    // With a relative carrier-frequency offset, cos(theta - phi) sweeps
    // through zero and the collision's envelope goes momentarily
    // constant: the variance dips below threshold *inside* the overlap.
    // The detector must report one region spanning the dips, not the
    // longest fragment.
    Pcg32 rng{447};
    const Bits bits_a = random_bits(1600, rng);
    const Bits bits_b = random_bits(1600, rng);
    const dsp::Msk_modulator mod_a{1.0, 0.0};
    const dsp::Msk_modulator mod_b{0.95, 0.0};
    dsp::Signal mix = mod_a.modulate(bits_a);
    // drift 0.004 rad/sample: the relative phase crosses pi/2 multiple
    // times over 1600 samples.
    chan::Link_params drift;
    drift.gain = 1.0;
    drift.phase = 0.9;
    drift.phase_drift = 0.004;
    dsp::accumulate(mix, chan::Link_channel{drift}.apply(mod_b.modulate(bits_b)), 200);
    mix = noisy(std::move(mix), 448);

    const Interference_detector detector{noise_power};
    const Interference_report report = detector.analyze(mix);
    ASSERT_TRUE(report.interfered);
    // One region covering (almost) the whole true overlap [200, 1601).
    EXPECT_LT(report.overlap_begin, 300u);
    EXPECT_GT(report.overlap_end, 1400u);
}

TEST(InterferenceDetector, PeakRatioReported)
{
    dsp::Signal mix = msk_burst(400, 444);
    dsp::accumulate(mix, dsp::rotated(msk_burst(400, 445), 0.4), 100);
    mix = noisy(std::move(mix), 446);
    const Interference_detector detector{noise_power};
    const Interference_report report = detector.analyze(mix);
    EXPECT_GT(report.peak_ratio_db, 10.0);
}

// ------------------------------------------------------- byte identity
// The detector scans were rewritten into block-vectorizable forms (the
// packet detector's threshold search, the interference analyzer's
// hoisted ratio pass).  These references transcribe the historical
// sequential loops; the rewritten detectors must agree on every field,
// byte for byte, across clean, collided, drifting, and noise-only
// inputs.

std::optional<Packet_bounds> reference_detect(dsp::Signal_view signal,
                                              double noise_power_value,
                                              Packet_detector::Config config)
{
    if (signal.size() < config.window)
        return std::nullopt;
    const dsp::Energy_scan scan = dsp::scan_energy(signal, config.window);
    const std::vector<double>& mean = scan.window_mean;
    const double threshold = noise_power_value * from_db(config.energy_threshold_db);
    std::size_t first = mean.size();
    for (std::size_t i = 0; i < mean.size(); ++i) {
        if (mean[i] > threshold) {
            first = i;
            break;
        }
    }
    if (first == mean.size())
        return std::nullopt;
    std::size_t last = first;
    for (std::size_t i = mean.size(); i-- > first;) {
        if (mean[i] > threshold) {
            last = i;
            break;
        }
    }
    Packet_bounds bounds;
    bounds.begin = first;
    bounds.end = std::min(last + config.window, signal.size());
    return bounds;
}

Interference_report reference_analyze(dsp::Signal_view packet,
                                      double noise_power_value,
                                      Interference_detector::Config config)
{
    Interference_report report;
    if (packet.size() < config.window)
        return report;
    const dsp::Energy_scan scan = dsp::scan_energy(packet, config.window);
    const std::vector<double>& mean = scan.window_mean;
    const std::vector<double>& variance = scan.window_variance;
    const double threshold = from_db(config.variance_threshold_db);
    const double sigma2 = noise_power_value;
    std::size_t run = 0;
    std::size_t run_start = 0;
    std::size_t first_begin = 0;
    std::size_t last_end = 0;
    bool found = false;
    double peak_ratio = 1e-12;
    for (std::size_t i = 0; i < variance.size(); ++i) {
        const double signal_power = std::max(mean[i] - sigma2, 1e-12);
        const double clean_variance = 2.0 * signal_power * sigma2 + sigma2 * sigma2;
        const double ratio = variance[i] / clean_variance;
        peak_ratio = std::max(peak_ratio, ratio);
        if (ratio > threshold) {
            if (run == 0)
                run_start = i;
            ++run;
            if (run >= config.min_run) {
                if (!found) {
                    first_begin = run_start;
                    found = true;
                }
                last_end = i + 1;
            }
        } else {
            run = 0;
        }
    }
    report.peak_ratio_db = std::max(0.0, to_db(peak_ratio));
    if (found) {
        report.interfered = true;
        report.overlap_begin = first_begin;
        report.overlap_end = std::min(last_end + config.window, packet.size());
    }
    return report;
}

std::vector<dsp::Signal> identity_workloads()
{
    std::vector<dsp::Signal> workloads;
    // Clean burst with silent head/tail (exercises both edge scans).
    {
        dsp::Signal stream(137, dsp::Sample{0.0, 0.0});
        dsp::accumulate(stream, msk_burst(500, 901), 137);
        stream.resize(stream.size() + 93, dsp::Sample{0.0, 0.0});
        workloads.push_back(noisy(std::move(stream), 902));
    }
    // Collision with drift dips (the envelope-merge path).
    {
        dsp::Signal mix = msk_burst(900, 903);
        chan::Link_params drift;
        drift.phase = 0.7;
        drift.phase_drift = 0.004;
        dsp::accumulate(mix,
                        chan::Link_channel{drift}.apply(msk_burst(900, 904, 0.9)),
                        150);
        workloads.push_back(noisy(std::move(mix), 905));
    }
    // Pure noise (no packet at all; detect must agree on nullopt).
    workloads.push_back(noisy(dsp::Signal(700, dsp::Sample{0.0, 0.0}), 906));
    // Weak burst straddling the threshold.
    workloads.push_back(noisy(msk_burst(300, 907, 0.25), 908));
    return workloads;
}

TEST(PacketDetector, BlockScanIsByteIdenticalToSequentialScan)
{
    const Packet_detector::Config config;
    const Packet_detector detector{noise_power, config};
    for (const dsp::Signal& stream : identity_workloads()) {
        const auto actual = detector.detect(stream);
        const auto expected = reference_detect(stream, noise_power, config);
        ASSERT_EQ(actual.has_value(), expected.has_value());
        if (actual) {
            EXPECT_EQ(actual->begin, expected->begin);
            EXPECT_EQ(actual->end, expected->end);
        }
    }
}

TEST(InterferenceDetector, HoistedRatioPassIsByteIdenticalToFusedLoop)
{
    const Interference_detector::Config config;
    const Interference_detector detector{noise_power, config};
    for (const dsp::Signal& packet : identity_workloads()) {
        const Interference_report actual = detector.analyze(packet);
        const Interference_report expected =
            reference_analyze(packet, noise_power, config);
        EXPECT_EQ(actual.interfered, expected.interfered);
        EXPECT_EQ(actual.overlap_begin, expected.overlap_begin);
        EXPECT_EQ(actual.overlap_end, expected.overlap_end);
        // Exact ==, not NEAR: the ratio arithmetic per window and the
        // max reduction must be bit-preserved by the rewrite.
        EXPECT_EQ(actual.peak_ratio_db, expected.peak_ratio_db);
    }
}

} // namespace
} // namespace anc::phy

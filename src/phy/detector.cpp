#include "phy/detector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "dsp/workspace.h"
#include "util/db.h"
#include "util/obs.h"
#include "util/simd.h"

namespace anc::phy {

namespace {

// The detectors get their windows' decisions as bitmasks (bit k % 64 of
// word k / 64, from simd::mean_above_mask / simd::excess_ratio_mask,
// which leave the bits past the last window clear) and walk the mask
// words: an all-zero or all-one word costs one compare.

/// First set bit at or after `from` in an n-bit mask, or n.
std::size_t next_set(const std::uint64_t* mask, std::size_t n, std::size_t from)
{
    if (from >= n)
        return n;
    std::size_t word = from / 64;
    std::uint64_t bits = mask[word] & (~std::uint64_t{0} << (from % 64));
    const std::size_t words = (n + 63) / 64;
    while (bits == 0) {
        if (++word == words)
            return n;
        bits = mask[word];
    }
    return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

/// First clear bit at or after `from` in an n-bit mask, or n.
std::size_t next_clear(const std::uint64_t* mask, std::size_t n, std::size_t from)
{
    if (from >= n)
        return n;
    std::size_t word = from / 64;
    std::uint64_t bits = ~mask[word] & (~std::uint64_t{0} << (from % 64));
    const std::size_t words = (n + 63) / 64;
    while (bits == 0) {
        if (++word == words)
            return n;
        bits = ~mask[word];
    }
    return std::min(word * 64 + static_cast<std::size_t>(std::countr_zero(bits)), n);
}

/// Last set bit of an n-bit mask that has one.
std::size_t last_set(const std::uint64_t* mask, std::size_t n)
{
    std::size_t word = (n + 63) / 64;
    while (mask[--word] == 0) {
    }
    return word * 64 + 63 - static_cast<std::size_t>(std::countl_zero(mask[word]));
}

} // namespace

Packet_detector::Packet_detector(double noise_power, Config config)
    : noise_power_{noise_power}, config_{config}
{
    if (config_.window == 0)
        throw std::invalid_argument{"Packet_detector: window must be positive"};
    if (!std::isfinite(config_.energy_threshold_db))
        throw std::invalid_argument{"Packet_detector: threshold must be finite"};
}

std::optional<Packet_bounds> Packet_detector::detect(dsp::Signal_view signal) const
{
    const obs::Stage_timer timer{obs::Stage::packet_detect};
    if (signal.size() < config_.window) {
        obs::count(obs::Counter::packet_detect_rejections);
        return std::nullopt;
    }
    // Mean-only scan: detection never reads the variance series.
    const std::size_t windows = signal.size() - config_.window + 1;
    auto above = dsp::Workspace::current().words();
    above->resize((windows + 63) / 64);
    simd::mean_above_mask(reinterpret_cast<const double*>(signal.data()), windows,
                          config_.window,
                          noise_power_ * from_db(config_.energy_threshold_db),
                          above->data());

    // The first window above threshold marks the packet head, the last
    // one its tail.
    const std::size_t first = next_set(above->data(), windows, 0);
    if (first == windows) {
        obs::count(obs::Counter::packet_detect_rejections);
        return std::nullopt;
    }
    const std::size_t last = last_set(above->data(), windows);

    obs::count(obs::Counter::packet_detect_triggers);
    Packet_bounds bounds;
    bounds.begin = first;
    bounds.end = std::min(last + config_.window, signal.size());
    return bounds;
}

Interference_detector::Interference_detector(double noise_power, Config config)
    : noise_power_{noise_power}, config_{config}
{
    if (config_.window == 0)
        throw std::invalid_argument{"Interference_detector: window must be positive"};
    if (config_.min_run == 0)
        throw std::invalid_argument{"Interference_detector: min_run must be positive"};
    if (!std::isfinite(config_.variance_threshold_db))
        throw std::invalid_argument{"Interference_detector: threshold must be finite"};
}

Interference_report Interference_detector::analyze(dsp::Signal_view packet) const
{
    const obs::Stage_timer timer{obs::Stage::interference_analyze};
    obs::count(obs::Counter::interference_analyses);
    Interference_report report;
    if (packet.size() < config_.window)
        return report;

    const std::size_t windows = packet.size() - config_.window + 1;
    auto above = dsp::Workspace::current().words();
    above->resize((windows + 63) / 64);
    // The peak ratio is tracked in linear space and converted to dB once
    // at the end: log10 is monotone, so max-then-log equals log-then-max.
    double peak_ratio = 1e-12;
    simd::excess_ratio_mask(reinterpret_cast<const double*>(packet.data()), windows,
                            config_.window, noise_power_,
                            from_db(config_.variance_threshold_db), above->data(),
                            &peak_ratio);
    // Historical form: the running max started at 0 dB, so it never
    // reported below zero.
    report.peak_ratio_db = std::max(0.0, to_db(peak_ratio));

    // The overlap region is the *envelope* of every above-threshold run
    // of at least min_run windows.  A single collision can show
    // transient dips: when the two carriers' relative phase drifts
    // through +-pi/2 (CFO), cos(theta - phi) passes zero and the
    // envelope is momentarily near-constant.  Taking the envelope
    // instead of the longest run keeps those dips from splitting one
    // collision into two; isolated spikes (packet edges) stay too short
    // to count.
    const std::uint64_t* mask = above->data();
    std::size_t first_begin = 0;
    std::size_t last_end = 0;
    bool found = false;
    for (std::size_t begin = next_set(mask, windows, 0); begin < windows;) {
        const std::size_t end = next_clear(mask, windows, begin);
        if (end - begin >= config_.min_run) {
            if (!found) {
                first_begin = begin;
                found = true;
            }
            last_end = end;
        }
        begin = next_set(mask, windows, end);
    }

    if (found) {
        obs::count(obs::Counter::interference_detected);
        report.interfered = true;
        report.overlap_begin = first_begin;
        report.overlap_end = std::min(last_end + config_.window, packet.size());
    }
    return report;
}

} // namespace anc::phy

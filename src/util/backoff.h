// Exponential backoff with full jitter, for retry loops that must not
// stampede: the coordinator's per-shard relaunch escalation.
//
// The delay sequence is the classic capped exponential
// (initial * multiplier^n, clamped to max); with full_jitter each wait
// is drawn uniformly from [0, that bound] ("full jitter" in the AWS
// architecture-blog taxonomy), which decorrelates a fleet of shards
// all relaunching after the same outage.  The jitter stream is a
// private SplitMix64 seeded by the caller, so a given
// (policy, seed) pair replays the exact same delays — tests and the
// deterministic chaos harness need no sleeps and no mocking.
//
// Time is the caller's: next() returns a duration; nothing here sleeps
// or reads a clock.  Not thread-safe (each retrying party owns one).

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace anc::util {

struct Backoff_policy {
    std::chrono::milliseconds initial{100};
    std::chrono::milliseconds max{5000};
    double multiplier = 2.0;
    bool full_jitter = true;
};

class Backoff {
public:
    explicit Backoff(Backoff_policy policy = {}, std::uint64_t jitter_seed = 0)
        : policy_{policy}, state_{jitter_seed}
    {
    }

    /// The delay to wait before attempt attempts()+1.  Advances the
    /// attempt counter (and the jitter stream when full_jitter is on).
    std::chrono::milliseconds next()
    {
        double bound = static_cast<double>(policy_.initial.count());
        for (std::size_t i = 0; i < attempts_; ++i) {
            bound *= policy_.multiplier;
            if (bound >= static_cast<double>(policy_.max.count()))
                break;
        }
        bound = std::min(bound, static_cast<double>(policy_.max.count()));
        ++attempts_;
        if (!policy_.full_jitter)
            return std::chrono::milliseconds{static_cast<std::int64_t>(bound)};
        // 53-bit mantissa draw in [0, 1); the delay grid is coarse
        // (milliseconds), so the truncation bias is irrelevant.
        const double unit =
            static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
        return std::chrono::milliseconds{
            static_cast<std::int64_t>(unit * bound)};
    }

    /// Forget the failure streak: the next delay is drawn from the
    /// initial bound again.  Called after a success (e.g. a completed
    /// reconnect handshake).
    void reset() { attempts_ = 0; }

    /// Failures so far in the current streak (= next() calls since the
    /// last reset).
    std::size_t attempts() const { return attempts_; }

private:
    // SplitMix64 (Steele-Lea-Flood); self-contained so the header pulls
    // in no engine RNG machinery.
    std::uint64_t next_u64()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    Backoff_policy policy_;
    std::uint64_t state_ = 0;
    std::size_t attempts_ = 0;
};

} // namespace anc::util

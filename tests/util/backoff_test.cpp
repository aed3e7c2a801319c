// util::Backoff (util/backoff.h): the capped-exponential-with-jitter
// schedule behind coordinator shard relaunches (engine/coordinator.h).
// Nothing here sleeps — the class only computes delays, which is what
// makes these tests exact.

#include "util/backoff.h"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

namespace anc::util {
namespace {

using std::chrono::milliseconds;

Backoff_policy no_jitter(milliseconds initial, milliseconds max, double mult = 2.0)
{
    Backoff_policy policy;
    policy.initial = initial;
    policy.max = max;
    policy.multiplier = mult;
    policy.full_jitter = false;
    return policy;
}

TEST(Backoff, ExactExponentialSequenceWithoutJitter)
{
    Backoff backoff{no_jitter(milliseconds{100}, milliseconds{5000})};
    EXPECT_EQ(backoff.next(), milliseconds{100});
    EXPECT_EQ(backoff.next(), milliseconds{200});
    EXPECT_EQ(backoff.next(), milliseconds{400});
    EXPECT_EQ(backoff.next(), milliseconds{800});
    EXPECT_EQ(backoff.next(), milliseconds{1600});
    EXPECT_EQ(backoff.next(), milliseconds{3200});
    // Capped from here on, forever.
    EXPECT_EQ(backoff.next(), milliseconds{5000});
    EXPECT_EQ(backoff.next(), milliseconds{5000});
    EXPECT_EQ(backoff.attempts(), 8u);
}

TEST(Backoff, ResetRestartsTheSchedule)
{
    Backoff backoff{no_jitter(milliseconds{50}, milliseconds{400})};
    backoff.next();
    backoff.next();
    backoff.reset();
    EXPECT_EQ(backoff.attempts(), 0u);
    EXPECT_EQ(backoff.next(), milliseconds{50});
    EXPECT_EQ(backoff.next(), milliseconds{100});
}

TEST(Backoff, FullJitterStaysWithinTheExponentialBound)
{
    Backoff_policy policy;
    policy.initial = milliseconds{100};
    policy.max = milliseconds{2000};
    policy.full_jitter = true;

    Backoff backoff{policy, /*jitter_seed=*/1234};
    milliseconds bound{100};
    for (int i = 0; i < 20; ++i) {
        const milliseconds delay = backoff.next();
        EXPECT_GE(delay.count(), 0);
        EXPECT_LE(delay, bound);
        bound = std::min(bound * 2, policy.max);
    }
}

TEST(Backoff, JitterIsDeterministicPerSeed)
{
    Backoff_policy policy;
    policy.initial = milliseconds{100};
    policy.max = milliseconds{2000};

    Backoff a{policy, 7}, b{policy, 7}, c{policy, 8};
    std::vector<milliseconds> seq_a, seq_b, seq_c;
    for (int i = 0; i < 10; ++i) {
        seq_a.push_back(a.next());
        seq_b.push_back(b.next());
        seq_c.push_back(c.next());
    }
    EXPECT_EQ(seq_a, seq_b);
    EXPECT_NE(seq_a, seq_c); // different seed, different (jittered) delays
}

TEST(Backoff, MultiplierOneHoldsTheInitialDelay)
{
    Backoff backoff{no_jitter(milliseconds{250}, milliseconds{5000}, 1.0)};
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(backoff.next(), milliseconds{250});
}

} // namespace
} // namespace anc::util

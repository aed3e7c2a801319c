#include "net/topology.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace anc::net {
namespace {

using namespace node;

TEST(Topology, AliceBobLinks)
{
    chan::Medium medium{0.0, Pcg32{1101}};
    Pcg32 rng{1102};
    install(medium, alice_bob(), Link_fading{}, rng);

    EXPECT_TRUE(medium.has_link(alice, router));
    EXPECT_TRUE(medium.has_link(router, alice));
    EXPECT_TRUE(medium.has_link(bob, router));
    EXPECT_TRUE(medium.has_link(router, bob));
    // Alice and Bob are out of radio range of each other (the premise).
    EXPECT_FALSE(medium.has_link(alice, bob));
    EXPECT_FALSE(medium.has_link(bob, alice));
}

TEST(Topology, ChainLinks)
{
    chan::Medium medium{0.0, Pcg32{1103}};
    Pcg32 rng{1104};
    install(medium, chain(), Link_fading{}, rng);

    EXPECT_TRUE(medium.has_link(n1, n2));
    EXPECT_TRUE(medium.has_link(n2, n1));
    EXPECT_TRUE(medium.has_link(n2, n3));
    EXPECT_TRUE(medium.has_link(n3, n4));
    // Two hops apart: out of range — N4 never hears N1 (§2(b)).
    EXPECT_FALSE(medium.has_link(n1, n3));
    EXPECT_FALSE(medium.has_link(n1, n4));
    EXPECT_FALSE(medium.has_link(n2, n4));
}

TEST(Topology, XLinks)
{
    chan::Medium medium{0.0, Pcg32{1105}};
    Pcg32 rng{1106};
    install(medium, x_topology(), Link_fading{}, rng);

    for (const chan::Node_id spoke : {n1, n2, n3, n4}) {
        EXPECT_TRUE(medium.has_link(spoke, n5));
        EXPECT_TRUE(medium.has_link(n5, spoke));
    }
    // Overhearing links with their interference counterparts.
    EXPECT_TRUE(medium.has_link(n1, n2));
    EXPECT_TRUE(medium.has_link(n3, n4));
    EXPECT_TRUE(medium.has_link(n3, n2));
    EXPECT_TRUE(medium.has_link(n1, n4));
    // The two senders do not hear each other.
    EXPECT_FALSE(medium.has_link(n1, n3));
}

TEST(Topology, XOverhearStrongerThanCross)
{
    chan::Medium medium{0.0, Pcg32{1107}};
    Pcg32 rng{1108};
    install(medium, x_topology(), Link_fading{}, rng);
    EXPECT_GT(medium.link(n1, n2).power_gain(),
              medium.link(n3, n2).power_gain());
}

TEST(Topology, LinkPhasesAreRandomized)
{
    chan::Medium medium{0.0, Pcg32{1109}};
    Pcg32 rng{1110};
    install(medium, alice_bob(), Link_fading{}, rng);
    const double phase_ar = medium.link(alice, router).params().phase;
    const double phase_ra = medium.link(router, alice).params().phase;
    EXPECT_NE(phase_ar, phase_ra);
}

} // namespace
} // namespace anc::net

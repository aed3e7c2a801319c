#include "fec/codec.h"

#include <gtest/gtest.h>

#include "util/bits.h"
#include "util/rng.h"

namespace anc::fec {
namespace {

TEST(FecCodec, RoundTrip)
{
    Pcg32 rng{221};
    const Bits data = random_bits(1000, rng);
    const Fec_codec codec;
    const Bits coded = codec.encode(data);
    EXPECT_EQ(coded.size(), codec.coded_size(data.size()));
    EXPECT_EQ(codec.decode(coded, data.size()), data);
}

TEST(FecCodec, CorrectsBurstWithInterleaving)
{
    Pcg32 rng{222};
    const Bits data = random_bits(224, rng); // 56 codewords = 7 blocks of 8
    const Fec_codec codec{8};
    Bits coded = codec.encode(data);
    // An 8-bit burst: without interleaving this kills a codeword (2+ errors
    // in one 7-bit word); with 8x7 interleaving each error lands in a
    // different codeword.
    for (std::size_t i = 100; i < 108; ++i)
        coded.flip(i);
    EXPECT_EQ(codec.decode(coded, data.size()), data);
}

TEST(FecCodec, RandomSparseErrorsMostlyCorrected)
{
    Pcg32 rng{223};
    const Bits data = random_bits(2000, rng);
    const Fec_codec codec{8};
    Bits coded = codec.encode(data);
    // ~2% BER, the paper's ANC operating point.
    std::size_t flips = 0;
    for (std::size_t i = 0; i < coded.size(); ++i) {
        if (rng.next_bernoulli(0.02)) {
            coded.flip(i);
            ++flips;
        }
    }
    ASSERT_GT(flips, 0u);
    const Bits decoded = codec.decode(coded, data.size());
    const double residual = bit_error_rate(decoded, data);
    // Hamming(7,4) at 2% input BER leaves well under 1% residual errors.
    EXPECT_LT(residual, 0.01);
}

TEST(FecCodec, RedundancyModelMatchesPaperRule)
{
    // §11.4: 4% BER -> 8% extra redundancy.
    EXPECT_DOUBLE_EQ(redundancy_overhead(0.04), 0.08);
    EXPECT_DOUBLE_EQ(redundancy_overhead(0.0), 0.0);
    EXPECT_DOUBLE_EQ(redundancy_overhead(0.9), 1.0); // capped
}

TEST(FecCodec, ThroughputFactor)
{
    EXPECT_DOUBLE_EQ(throughput_factor(0.0), 1.0);
    EXPECT_NEAR(throughput_factor(0.04), 1.0 / 1.08, 1e-12);
    EXPECT_GT(throughput_factor(0.01), throughput_factor(0.05));
}

TEST(FecCodec, CodedSizeFormula)
{
    const Fec_codec codec;
    EXPECT_EQ(codec.coded_size(4), 7u);
    EXPECT_EQ(codec.coded_size(5), 14u);
    EXPECT_EQ(codec.coded_size(1000), 250u * 7u);
    EXPECT_NEAR(codec.rate(), 4.0 / 7.0, 1e-12);
}

} // namespace
} // namespace anc::fec

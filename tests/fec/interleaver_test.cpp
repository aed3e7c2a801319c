#include "fec/interleaver.h"

#include <gtest/gtest.h>

#include "util/bits.h"
#include "util/rng.h"

namespace anc::fec {
namespace {

TEST(Interleaver, RoundTrip)
{
    Pcg32 rng{211};
    const Bits data = random_bits(8 * 7 * 5, rng);
    const Block_interleaver interleaver{8, 7};
    EXPECT_EQ(interleaver.deinterleave(interleaver.interleave(data)), data);
}

TEST(Interleaver, RoundTripWithTail)
{
    Pcg32 rng{212};
    const Bits data = random_bits(8 * 7 + 13, rng); // one block plus a tail
    const Block_interleaver interleaver{8, 7};
    EXPECT_EQ(interleaver.deinterleave(interleaver.interleave(data)), data);
}

TEST(Interleaver, SpreadsBursts)
{
    // A burst of `rows` consecutive errors in the interleaved domain must
    // land in distinct rows (= distinct codewords) after deinterleaving.
    const std::size_t rows = 8;
    const std::size_t cols = 7;
    const Block_interleaver interleaver{rows, cols};
    Bits data(rows * cols);
    Bits on_air = interleaver.interleave(data);
    for (std::size_t i = 0; i < rows; ++i)
        on_air.flip(20 + i); // a burst of 8
    const Bits received = interleaver.deinterleave(on_air);

    // Count errors per 7-bit codeword: no codeword may carry more than 2.
    for (std::size_t block = 0; block < rows; ++block) {
        std::size_t errors = 0;
        for (std::size_t i = 0; i < cols; ++i)
            errors += received[block * cols + i];
        EXPECT_LE(errors, 2u) << "codeword " << block;
    }
}

TEST(Interleaver, IdentityForTinyInput)
{
    const Block_interleaver interleaver{8, 7};
    const Bits data{1, 0, 1};
    EXPECT_EQ(interleaver.interleave(data), data);
}

TEST(Interleaver, RejectsZeroDimensions)
{
    EXPECT_THROW((Block_interleaver{0, 7}), std::invalid_argument);
    EXPECT_THROW((Block_interleaver{8, 0}), std::invalid_argument);
}

} // namespace
} // namespace anc::fec

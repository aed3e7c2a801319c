#include "util/bits.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace anc {
namespace {

using Byte_bits = std::vector<std::uint8_t>;

Byte_bits byte_per_bit(const Bits& bits)
{
    Byte_bits out(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
        out[i] = bits[i];
    return out;
}

TEST(Bits, PackedLayoutIsLsbFirst)
{
    const Bits bits{1, 0, 1, 1};
    ASSERT_EQ(bits.size(), 4u);
    EXPECT_EQ(bits.word_count(), 1u);
    EXPECT_EQ(bits.data()[0], 0b1101u);
    // Two zero pad words follow the last used word.
    EXPECT_EQ(bits.data()[1], 0u);
    EXPECT_EQ(bits.data()[2], 0u);
    Bits ones;
    ones.append(~std::uint64_t{0}, 64);
    ones.append(~std::uint64_t{0}, 6);
    EXPECT_EQ(ones.data()[0], ~std::uint64_t{0});
    EXPECT_EQ(ones.data()[1], 0x3fu);
    EXPECT_EQ(ones.data()[2], 0u);
}

TEST(Bits, OpsMatchByteReferenceOnRaggedLengths)
{
    // Word-level XOR, distance, BER, mirroring, splicing and extraction
    // against byte-per-bit references, on lengths that are multiples of
    // neither 8 nor 64.
    Pcg32 rng{13};
    for (int trial = 0; trial < 100; ++trial) {
        std::size_t n = 1 + rng.next_u32() % 700;
        if (n % 8 == 0)
            ++n;
        const std::size_t m = n - rng.next_u32() % n; // 1..n
        const Bits a = random_bits(n, rng);
        const Bits b = random_bits(n, rng);
        const Bits c = random_bits(m, rng);
        const Byte_bits ra = byte_per_bit(a);
        const Byte_bits rb = byte_per_bit(b);
        const Byte_bits rc = byte_per_bit(c);

        const Bits x = xor_bits(a, b);
        std::size_t ab = 0;
        std::size_t ac = n - m;
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(x[i], ra[i] ^ rb[i]);
            ab += ra[i] != rb[i];
            if (i < m)
                ac += ra[i] != rc[i];
        }
        EXPECT_EQ(hamming_distance(a, b), ab);
        EXPECT_EQ(hamming_distance(a, c), ac);
        EXPECT_EQ(hamming_distance(c, a), ac);
        EXPECT_DOUBLE_EQ(bit_error_rate(a, c),
                         static_cast<double>(ac) / static_cast<double>(n));

        const Byte_bits rm = byte_per_bit(mirrored(a));
        EXPECT_EQ(mirrored(mirrored(a)), a);
        EXPECT_EQ(rm, Byte_bits(ra.rbegin(), ra.rend()));

        Bits joined = c;
        joined.append(a);
        Byte_bits rj = rc;
        rj.insert(rj.end(), ra.begin(), ra.end());
        EXPECT_EQ(byte_per_bit(joined), rj);
        const std::size_t from = rng.next_u32() % n;
        const std::size_t count = n - from;
        Bits part;
        part.assign(joined, m + from, count);
        EXPECT_EQ(byte_per_bit(part), Byte_bits(ra.begin() + static_cast<long>(from), ra.end()));
        const auto width = static_cast<unsigned>(std::min<std::size_t>(64, count));
        std::uint64_t expected = 0;
        for (unsigned i = 0; i < width; ++i)
            expected |= static_cast<std::uint64_t>(ra[from + i]) << i;
        EXPECT_EQ(joined.extract(m + from, width), expected);
    }
}

TEST(Bits, RandomBitsTakeBitZeroOfEachDraw)
{
    Pcg32 rng{14};
    Pcg32 replay{14};
    const Bits bits = random_bits(333, rng);
    for (std::size_t i = 0; i < bits.size(); ++i)
        ASSERT_EQ(bits[i], replay.next_u32() & 1u) << i;
}

TEST(Bits, AppendAndReadUint)
{
    Bits bits;
    append_uint(bits, 0xCAFE, 16);
    append_uint(bits, 5, 3);
    EXPECT_EQ(bits.size(), 19u);
    EXPECT_EQ(read_uint(bits, 0, 16), 0xCAFEu);
    EXPECT_EQ(read_uint(bits, 16, 3), 5u);
}

TEST(Bits, ReadUintOutOfRangeThrows)
{
    Bits bits{1, 0, 1};
    EXPECT_THROW(read_uint(bits, 0, 4), std::out_of_range);
    EXPECT_THROW(read_uint(bits, 2, 2), std::out_of_range);
}

TEST(Bits, XorBits)
{
    const Bits a{1, 1, 0, 0};
    const Bits b{1, 0, 1, 0};
    const Bits expected{0, 1, 1, 0};
    EXPECT_EQ(xor_bits(a, b), expected);
}

TEST(Bits, XorLengthMismatchThrows)
{
    const Bits a{1, 1};
    const Bits b{1};
    EXPECT_THROW(xor_bits(a, b), std::invalid_argument);
}

TEST(Bits, XorIsSelfInverse)
{
    Pcg32 rng{11};
    const Bits data = random_bits(256, rng);
    const Bits key = random_bits(256, rng);
    EXPECT_EQ(xor_bits(xor_bits(data, key), key), data);
}

TEST(Bits, HammingDistanceCountsDifferences)
{
    const Bits a{1, 1, 0, 0, 1};
    const Bits b{1, 0, 0, 1, 1};
    EXPECT_EQ(hamming_distance(a, b), 2u);
}

TEST(Bits, HammingDistanceChargesLengthMismatch)
{
    const Bits a{1, 1, 0};
    const Bits b{1, 1};
    EXPECT_EQ(hamming_distance(a, b), 1u);
}

TEST(Bits, BitErrorRate)
{
    const Bits a{1, 1, 1, 1};
    const Bits b{1, 1, 0, 0};
    EXPECT_DOUBLE_EQ(bit_error_rate(a, b), 0.5);
    EXPECT_DOUBLE_EQ(bit_error_rate({}, {}), 0.0);
}

TEST(Bits, RandomBitsAreBalanced)
{
    Pcg32 rng{12};
    const Bits bits = random_bits(10000, rng);
    std::size_t ones = 0;
    for (std::size_t i = 0; i < bits.size(); ++i)
        ones += bits[i];
    EXPECT_NEAR(static_cast<double>(ones) / 10000.0, 0.5, 0.03);
}

TEST(Bits, MirroredReverses)
{
    const Bits bits{1, 0, 0, 1, 1};
    const Bits expected{1, 1, 0, 0, 1};
    EXPECT_EQ(mirrored(bits), expected);
    EXPECT_EQ(mirrored(mirrored(bits)), bits);
}

TEST(Bits, ToStringRendersBits)
{
    const Bits bits{1, 0, 1, 1};
    EXPECT_EQ(to_string(bits), "1011");
}

} // namespace
} // namespace anc

#include "util/bits.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace anc {

Bits::Bits(std::initializer_list<int> bits)
{
    for (const int bit : bits)
        push_back(bit != 0);
}

void Bits::resize(std::size_t count)
{
    const std::size_t used = (count + 63) / 64;
    if (count < size_) {
        if (count % 64 != 0)
            words_[used - 1] &= (std::uint64_t{1} << (count % 64)) - 1;
        std::fill(words_.begin() + static_cast<std::ptrdiff_t>(used), words_.end(), 0);
    }
    words_.resize(used + 2, 0); // + the two zero pad words
    size_ = count;
}

void Bits::append(std::uint64_t value, unsigned width)
{
    const std::size_t pos = size_;
    resize(pos + width);
    if (width < 64)
        value &= (std::uint64_t{1} << width) - 1;
    const unsigned shift = pos & 63;
    words_[pos >> 6] |= value << shift;
    if (shift + width > 64)
        words_[(pos >> 6) + 1] |= value >> (64 - shift);
}

void Bits::append(const Bits& bits)
{
    for (std::size_t i = 0; i < bits.size_; i += 64)
        append(bits.words_[i / 64], static_cast<unsigned>(std::min<std::size_t>(64, bits.size_ - i)));
}

void Bits::assign(const Bits& src, std::size_t from, std::size_t count)
{
    clear();
    resize(count);
    for (std::size_t i = 0; i < count; i += 64)
        words_[i / 64] = src.extract(from + i, static_cast<unsigned>(std::min<std::size_t>(64, count - i)));
}

bool operator==(const Bits& a, const Bits& b)
{
    return a.size_ == b.size_ && std::equal(a.data(), a.data() + a.word_count(), b.data());
}

std::uint64_t reverse_bits(std::uint64_t x, unsigned width)
{
    x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
    x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
    x = ((x >> 4) & 0x0f0f0f0f0f0f0f0fULL) | ((x & 0x0f0f0f0f0f0f0f0fULL) << 4);
    return width == 0 ? 0 : __builtin_bswap64(x) >> (64 - width);
}

void append_uint(Bits& bits, std::uint64_t value, int width)
{
    if (width < 0 || width > 64)
        throw std::invalid_argument{"append_uint: width out of range"};
    if (width > 0)
        bits.append(reverse_bits(value, static_cast<unsigned>(width)), static_cast<unsigned>(width));
}

std::uint64_t read_uint(const Bits& bits, std::size_t offset, int width)
{
    if (width < 0 || width > 64 || offset + static_cast<std::size_t>(width) > bits.size())
        throw std::out_of_range{"read_uint: request exceeds bit sequence"};
    const auto w = static_cast<unsigned>(width);
    return w == 0 ? 0 : reverse_bits(bits.extract(offset, w), w);
}

Bits xor_bits(const Bits& a, const Bits& b)
{
    if (a.size() != b.size())
        throw std::invalid_argument{"xor_bits: length mismatch"};
    Bits out(a.size());
    for (std::size_t k = 0; k < a.word_count(); ++k)
        out.data()[k] = a.data()[k] ^ b.data()[k];
    return out;
}

std::size_t hamming_distance(const Bits& a, const Bits& b)
{
    // Past a sequence's end its bits are zero: mask the longer one's
    // overhang in the last common word.
    const std::size_t common = std::min(a.size(), b.size());
    std::size_t distance = std::max(a.size(), b.size()) - common;
    for (std::size_t i = 0; i < common; i += 64) {
        const std::uint64_t diff = a.data()[i / 64] ^ b.data()[i / 64];
        const std::uint64_t live = common - i < 64 ? (std::uint64_t{1} << (common - i)) - 1 : ~std::uint64_t{0};
        distance += static_cast<std::size_t>(std::popcount(diff & live));
    }
    return distance;
}

double bit_error_rate(const Bits& a, const Bits& b)
{
    const std::size_t denom = std::max(a.size(), b.size());
    return denom == 0 ? 0.0 : static_cast<double>(hamming_distance(a, b)) / static_cast<double>(denom);
}

Bits random_bits(std::size_t count, Pcg32& rng)
{
    Bits bits;
    random_bits_into(count, rng, bits);
    return bits;
}

void random_bits_into(std::size_t count, Pcg32& rng, Bits& out)
{
    out.clear();
    out.resize(count);
    for (std::size_t i = 0; i < count; i += 64) {
        std::uint64_t word = 0; // a local word keeps the PCG state in registers
        for (std::size_t j = 0; j < std::min<std::size_t>(64, count - i); ++j)
            word |= static_cast<std::uint64_t>(rng.next_u32() & 1u) << j;
        out.data()[i / 64] = word;
    }
}

Bits mirrored(const Bits& bits)
{
    // Reversing the word order and each word's bits mirrors the sequence
    // padded to whole words, pad first: shift the pad back out.
    const std::size_t words = bits.word_count();
    const auto pad = static_cast<unsigned>(words * 64 - bits.size());
    Bits out(bits.size());
    for (std::size_t k = 0; k < words; ++k) {
        const std::uint64_t lo = reverse_bits(bits.data()[words - 1 - k]);
        const std::uint64_t hi = k + 1 < words ? reverse_bits(bits.data()[words - 2 - k]) : 0;
        out.data()[k] = pad ? (lo >> pad) | (hi << (64 - pad)) : lo;
    }
    return out;
}

std::string to_string(const Bits& bits)
{
    std::string text;
    for (std::size_t i = 0; i < bits.size(); ++i)
        text.push_back(bits[i] ? '1' : '0');
    return text;
}

} // namespace anc

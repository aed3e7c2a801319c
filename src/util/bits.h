// Bit sequences, packed LSB-first into 64-bit words: bit i is bit i % 64
// of word i / 64.  Every per-packet kernel reads the words as they are —
// pilot scans XOR and popcount them, the CRCs fold their little-endian
// bytes, the scrambler XORs a keystream word, the MSK modulator turns a
// word's prefix parity into quadrants and the MSK decisions land in
// words — so a frame is never re-packed between layers, and BER or the
// COPE XOR costs one word operation per 64 bits.  Invariants: bits past
// size() are zero, and two zero pad words follow the last used word (a
// pilot scan reads a full pattern stride at any valid start).

#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/rng.h"

namespace anc {

class Bits {
public:
    Bits() = default;
    explicit Bits(std::size_t count) { resize(count); } ///< zeros
    Bits(std::initializer_list<int> bits);             ///< 0/1 literals

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t word_count() const { return (size_ + 63) / 64; }
    const std::uint64_t* data() const { return words_.data(); }
    /// For kernels filling whole words after resize(); they keep the bits
    /// past size() zero.
    std::uint64_t* data() { return words_.data(); }

    std::uint8_t operator[](std::size_t i) const
    {
        return static_cast<std::uint8_t>((words_[i >> 6] >> (i & 63)) & 1u);
    }
    void set(std::size_t i, bool bit)
    {
        const std::uint64_t mask = std::uint64_t{1} << (i & 63);
        words_[i >> 6] = (words_[i >> 6] & ~mask) | (bit ? mask : 0);
    }
    void flip(std::size_t i) { words_[i >> 6] ^= std::uint64_t{1} << (i & 63); }

    /// Bits [pos, pos + width) as an integer, bit pos in bit 0
    /// (1 <= width <= 64, pos + width <= size()).
    std::uint64_t extract(std::size_t pos, unsigned width = 64) const
    {
        const std::uint64_t* w = words_.data() + (pos >> 6);
        const unsigned shift = pos & 63;
        const std::uint64_t v = shift ? (w[0] >> shift) | (w[1] << (64 - shift)) : w[0];
        return width == 64 ? v : v & ((std::uint64_t{1} << width) - 1);
    }
    /// Append the low `width` bits of `value` (bit 0 first), or a sequence.
    void append(std::uint64_t value, unsigned width);
    void append(const Bits& bits);
    void push_back(bool bit) { append(bit ? 1 : 0, 1); }
    /// Become a copy of src's bits [from, from + count).
    void assign(const Bits& src, std::size_t from, std::size_t count);

    /// Size 0, capacity kept (workspace leases rely on that).
    void clear()
    {
        words_.clear();
        size_ = 0;
    }
    void resize(std::size_t count); ///< new bits are zero
    void reserve(std::size_t count) { words_.reserve((count + 63) / 64 + 2); }

    friend bool operator==(const Bits& a, const Bits& b);

private:
    std::vector<std::uint64_t> words_;
    std::size_t size_ = 0;
};

/// x's low `width` bits reversed, the rest cleared: an MSB-first field's
/// packed form, and back.
std::uint64_t reverse_bits(std::uint64_t x, unsigned width = 64);

/// Append / read a `width`-bit unsigned field MSB-first; read_uint throws
/// std::out_of_range unless offset + width <= bits.size().
void append_uint(Bits& bits, std::uint64_t value, int width);
std::uint64_t read_uint(const Bits& bits, std::size_t offset, int width);

/// Element-wise XOR; the sequences must have equal length.
Bits xor_bits(const Bits& a, const Bits& b);

/// Positions where the sequences differ over the shorter length, plus the
/// length difference (a missing bit is an error).
std::size_t hamming_distance(const Bits& a, const Bits& b);

/// hamming_distance over max(len(a), len(b)); 0 for two empty sequences.
double bit_error_rate(const Bits& a, const Bits& b);

/// `count` random bits: bit 0 of one rng.next_u32() draw each.
Bits random_bits(std::size_t count, Pcg32& rng);
void random_bits_into(std::size_t count, Pcg32& rng, Bits& out);

/// The sequence reversed.  A frame carries a mirrored pilot/header at its
/// end so that a receiver scanning the samples backwards (§7.4) sees them
/// in forward order.
Bits mirrored(const Bits& bits);

/// "0"/"1" rendering for diagnostics.
std::string to_string(const Bits& bits);

} // namespace anc

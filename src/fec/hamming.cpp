#include "fec/hamming.h"

#include <stdexcept>

#include "util/obs.h"

namespace anc::fec {

namespace {

// Codeword bit layout, MSB-first when serialized:
//   index:  0  1  2  3  4  5  6
//   role :  p1 p2 d1 p3 d2 d3 d4
// Parity equations (even parity):
//   p1 covers positions 1,3,5,7  -> d1 d2 d4
//   p2 covers positions 2,3,6,7  -> d1 d3 d4
//   p3 covers positions 4,5,6,7  -> d2 d3 d4

std::uint8_t bit_of(std::uint8_t value, int msb_index, int width)
{
    return static_cast<std::uint8_t>((value >> (width - 1 - msb_index)) & 1u);
}

} // namespace

std::uint8_t hamming74_encode_nibble(std::uint8_t nibble)
{
    const std::uint8_t d1 = bit_of(nibble, 0, 4);
    const std::uint8_t d2 = bit_of(nibble, 1, 4);
    const std::uint8_t d3 = bit_of(nibble, 2, 4);
    const std::uint8_t d4 = bit_of(nibble, 3, 4);
    const std::uint8_t p1 = d1 ^ d2 ^ d4;
    const std::uint8_t p2 = d1 ^ d3 ^ d4;
    const std::uint8_t p3 = d2 ^ d3 ^ d4;
    return static_cast<std::uint8_t>(
        (p1 << 6u) | (p2 << 5u) | (d1 << 4u) | (p3 << 3u) | (d2 << 2u) | (d3 << 1u) | d4);
}

std::uint8_t hamming74_decode_codeword(std::uint8_t codeword)
{
    bool corrected = false;
    return hamming74_decode_codeword(codeword, corrected);
}

std::uint8_t hamming74_decode_codeword(std::uint8_t codeword, bool& corrected)
{
    std::uint8_t bits[8] = {0}; // 1-indexed positions 1..7
    for (int position = 1; position <= 7; ++position)
        bits[position] = static_cast<std::uint8_t>((codeword >> (7 - position)) & 1u);

    const std::uint8_t s1 = bits[1] ^ bits[3] ^ bits[5] ^ bits[7];
    const std::uint8_t s2 = bits[2] ^ bits[3] ^ bits[6] ^ bits[7];
    const std::uint8_t s3 = bits[4] ^ bits[5] ^ bits[6] ^ bits[7];
    const int syndrome = s1 * 1 + s2 * 2 + s3 * 4;
    corrected = syndrome != 0;
    if (syndrome != 0)
        bits[syndrome] ^= 1u;

    return static_cast<std::uint8_t>(
        (bits[3] << 3u) | (bits[5] << 2u) | (bits[6] << 1u) | bits[7]);
}

Bits hamming74_encode(const Bits& bits)
{
    Bits padded = bits;
    padded.resize((bits.size() + 3) / 4 * 4);

    Bits out;
    out.reserve(padded.size() / 4 * 7);
    for (std::size_t block = 0; block < padded.size(); block += 4) {
        const auto nibble = static_cast<std::uint8_t>(read_uint(padded, block, 4));
        append_uint(out, hamming74_encode_nibble(nibble), 7);
    }
    return out;
}

Bits hamming74_decode(const Bits& bits)
{
    if (bits.size() % 7 != 0)
        throw std::invalid_argument{"hamming74_decode: length must be a multiple of 7"};
    Bits out;
    out.reserve(bits.size() / 7 * 4);
    // Tally corrections locally and post two obs counts at the end, so
    // telemetry stays O(1) per decode rather than O(codewords).
    std::uint64_t corrections = 0;
    for (std::size_t block = 0; block < bits.size(); block += 7) {
        const auto codeword = static_cast<std::uint8_t>(read_uint(bits, block, 7));
        bool corrected = false;
        const std::uint8_t nibble = hamming74_decode_codeword(codeword, corrected);
        corrections += corrected;
        append_uint(out, nibble, 4);
    }
    obs::count(obs::Counter::fec_codewords, bits.size() / 7);
    obs::count(obs::Counter::fec_corrected_bits, corrections);
    return out;
}

} // namespace anc::fec

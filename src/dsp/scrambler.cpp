#include "dsp/scrambler.h"

#include <stdexcept>

namespace anc::dsp {

// With the LFSR state read as bits x[t..t+15] (bit 0 the oldest), each
// step emits and shifts in x[t+16] = x[t] ^ x[t+2] ^ x[t+3] ^ x[t+5]
// (taps 16,14,13,11, V.41); keystream bit k is x[k+16].  The recurrence
// polynomial squared twice over GF(2) gives x[n+64] = x[n] ^ x[n+8] ^
// x[n+12] ^ x[n+20], so each keystream word follows from the previous one.

Scrambler::Scrambler(std::uint16_t seed)
{
    if (seed == 0)
        throw std::invalid_argument{"Scrambler: LFSR seed must be non-zero"};
    // The first word, 11 bits per step: x[t+16..t+26] need only the state.
    std::uint64_t state = seed;
    std::uint64_t word = 0;
    for (unsigned n = 0; n < 64; n += 11) {
        const std::uint64_t fresh = (state ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 0x7ff;
        word |= fresh << n;
        state = (state >> 11) | (fresh << 5);
    }
    first_word_ = word;
}

void Scrambler::apply(Bits& bits) const
{
    constexpr std::uint64_t low44 = (std::uint64_t{1} << 44) - 1;
    std::uint64_t key = first_word_;
    std::uint64_t* words = bits.data();
    for (std::size_t k = 0; k < bits.word_count(); ++k) {
        words[k] ^= key;
        // Bits 0..43 of the next word need only this one; bits 44..63
        // also read the next word's low bits, computed first.
        const std::uint64_t lo = (key ^ (key >> 8) ^ (key >> 12) ^ (key >> 20)) & low44;
        key = lo | ((key ^ (key >> 8 | lo << 56) ^ (key >> 12 | lo << 52) ^ (lo << 44)) & ~low44);
    }
    if (bits.size() % 64 != 0) // keep the bits past size() zero
        words[bits.size() / 64] &= (std::uint64_t{1} << (bits.size() % 64)) - 1;
}

} // namespace anc::dsp

// Additive scrambler (payload whitening).
//
// The amplitude estimator of §6.2 relies on E[cos(theta - phi)] ~ 0, which
// holds only if the transmitted bits look random.  The paper's fix: "we
// XOR them with a pseudo-random sequence at the sender, and XOR them again
// with the same sequence at the receiver" — a classic additive scrambler.
// We generate the keystream with a 16-bit Fibonacci LFSR (x^16 + x^14 +
// x^13 + x^11 + 1, the CCITT V.41 polynomial), seeded identically at both
// ends.

#pragma once

#include <cstdint>

#include "util/bits.h"

namespace anc::dsp {

/// Self-inverse whitening transform: applying it twice is the identity.
///
/// The keystream restarts from the seed on every apply(), so each packet
/// is whitened independently.  It is generated a packed word at a time
/// (the LFSR recurrence raised to its 64th power, see scrambler.cpp), so
/// apply() is one XOR per 64 bits and the instance holds no mutable
/// state: concurrent apply() calls on one scrambler are safe.
class Scrambler {
public:
    explicit Scrambler(std::uint16_t seed = 0xACE1u);

    /// XOR `bits` in place with the keystream.
    void apply(Bits& bits) const;

private:
    std::uint64_t first_word_; // keystream bits 0..63
};

} // namespace anc::dsp

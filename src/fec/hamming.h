// Hamming(7,4) single-error-correcting block code.
//
// The paper charges ANC's throughput for "extra redundancy (i.e., error
// correction codes)" needed to absorb the 2-4% residual BER of
// interference decoding (§11.2, §11.4).  This module provides a real code
// so that the examples and the FEC ablation can demonstrate the recovery,
// not just account for it.

#pragma once

#include <cstdint>
#include <span>

#include "util/bits.h"

namespace anc::fec {

/// Encode 4 data bits into a 7-bit codeword (positions: p1 p2 d1 p3 d2 d3 d4).
std::uint8_t hamming74_encode_nibble(std::uint8_t nibble);

/// Decode a 7-bit codeword, correcting up to one flipped bit.
/// Returns the 4 data bits.
std::uint8_t hamming74_decode_codeword(std::uint8_t codeword);

/// As above, additionally reporting whether a bit was corrected (the
/// syndrome was nonzero) — the telemetry layer's FEC-correction tally.
std::uint8_t hamming74_decode_codeword(std::uint8_t codeword, bool& corrected);

/// Encode a bit sequence; the input is zero-padded to a multiple of 4.
/// Output length is ceil(len/4) * 7 bits.
Bits hamming74_encode(const Bits& bits);

/// Decode a sequence of 7-bit codewords back to data bits (4 per block).
/// The input length must be a multiple of 7.
Bits hamming74_decode(const Bits& bits);

/// Code rate of Hamming(7,4).
inline constexpr double hamming74_rate = 4.0 / 7.0;

} // namespace anc::fec

// CRC-32 (IEEE 802.3) and CRC-16-CCITT over packed bit sequences.
//
// Frame headers carry a CRC-16 so a receiver can tell a correctly decoded
// header from garbage (the ANC receiver *must* validate headers before
// trusting them to pick a packet out of the sent-packet buffer, §7.3).
// Payload integrity checks in the examples and the COPE baseline use
// CRC-32.

#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bits.h"

namespace anc {

/// CRC-32/IEEE (reflected, poly 0xedb88320) over bits [pos, pos + count)
/// of packed words (util/bits.h layout; the words must be readable one
/// word past the range).  The bits are fed in sequence order, so over
/// whole bytes this is the standard byte-wise CRC of the words'
/// little-endian bytes.
std::uint32_t crc32(const std::uint64_t* words, std::size_t pos, std::size_t count);

/// CRC-16-CCITT (poly 0x1021, init 0xffff, MSB-first register) over the
/// same kind of range, bits fed in sequence order.
std::uint16_t crc16(const std::uint64_t* words, std::size_t pos, std::size_t count);

inline std::uint32_t crc32(const Bits& bits) { return crc32(bits.data(), 0, bits.size()); }
inline std::uint16_t crc16(const Bits& bits) { return crc16(bits.data(), 0, bits.size()); }

} // namespace anc

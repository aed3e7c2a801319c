// Frame header (Fig. 6): source, destination, sequence number.
//
// The ANC receiver uses the header to pick the right packet out of its
// sent-packet buffer (§7.3), so the header must be self-checking: a
// CRC-16 guards against trusting a garbled header.  The header also
// carries the payload length so the receiver knows the frame extent.
//
// Wire layout (64 bits, each field MSB-first):
//   src:8  dst:8  seq:16  payload_bits:16  crc16:16
// A header is exactly one packed word (util/bits.h layout): bit i of the
// word is wire bit i.

#pragma once

#include <cstdint>
#include <optional>

#include "util/bits.h"

namespace anc::phy {

inline constexpr std::size_t header_length = 64;

struct Frame_header {
    std::uint8_t src = 0;
    std::uint8_t dst = 0;
    std::uint16_t seq = 0;
    std::uint16_t payload_bits = 0;

    friend bool operator==(const Frame_header&, const Frame_header&) = default;
};

/// Serialize to the 64 wire bits, CRC included, as one packed word.
std::uint64_t encode_header(const Frame_header& header);

/// Parse a packed header word; nothing if the CRC fails.
std::optional<Frame_header> decode_header(std::uint64_t word);

/// Parse the header at bits [pos, pos + 64); nothing if the bits end
/// first or the CRC fails.
std::optional<Frame_header> decode_header(const Bits& bits, std::size_t pos);

} // namespace anc::phy

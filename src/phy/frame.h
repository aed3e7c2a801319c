// Frame layout (Fig. 6 plus §7.4), extended with a payload check.
//
//   [ pilot | header | crc | payload | mirror(crc) | mirror(header) | mirror(pilot) ]
//      64       64      32      N          32             64              64
//
// The pilot and header appear *mirrored* at the tail so that a receiver
// scanning the stream backwards (Bob, whose packet starts second) sees
// them in forward order.  The payload CRC-32 (over the on-air, whitened
// payload) plays the role of 802.11's FCS: a *clean* receive must pass
// it, which is what lets a receiver distinguish a genuinely clean (or
// captured-over-weak-interference) packet from the strong half of a
// comparable-power collision.  ANC interference decoding deliberately
// ignores it — those packets carry residual bit errors by design and are
// cleaned up by FEC (§11.2).
//
// The CRC is mirrored at the tail too, keeping the layout reversal-
// symmetric: a time-reversed frame is structurally a valid frame whose
// payload bits are reversed (and whose CRC field then refers to the
// un-reversed payload).

#pragma once

#include <cstddef>
#include <optional>

#include "phy/header.h"
#include "util/bits.h"

namespace anc::phy {

inline constexpr std::size_t crc_length = 32;
inline constexpr std::size_t frame_overhead_bits = 4 * 64 + 2 * crc_length;

/// Total frame length for a payload of `payload_bits` bits.
constexpr std::size_t frame_length(std::size_t payload_bits)
{
    return frame_overhead_bits + payload_bits;
}

/// Bit offsets of the frame fields.
struct Frame_offsets {
    std::size_t pilot = 0;
    std::size_t header = 0;
    std::size_t crc = 0;
    std::size_t payload = 0;
    std::size_t tail_crc = 0;
    std::size_t tail_header = 0;
    std::size_t tail_pilot = 0;
    std::size_t end = 0;
};

constexpr Frame_offsets frame_offsets(std::size_t payload_bits)
{
    Frame_offsets o;
    o.pilot = 0;
    o.header = 64;
    o.crc = 128;
    o.payload = 160;
    o.tail_crc = 160 + payload_bits;
    o.tail_header = o.tail_crc + crc_length;
    o.tail_pilot = o.tail_header + 64;
    o.end = o.tail_pilot + 64;
    return o;
}

/// Assemble the on-air bits into `frame` (cleared first).  `payload` is
/// taken as-is: whitening (scrambling) is the modem's job and must
/// already have happened.
void build_frame(const Frame_header& header, const Bits& payload, Bits& frame);

struct Parsed_frame {
    Frame_header header;
    std::size_t payload_pos = 0; // payload offset in the parsed bits (whitened)
    bool crc_ok = false;         // leading CRC field matches the payload
};

/// Parse a frame from `bits` starting at `pilot_pos` (the position where
/// the pilot was found).  Verifies the header CRC and that the frame
/// fits; the payload is located by length.  The payload CRC result is
/// *reported*, not enforced — clean receives require it, interference
/// decodes don't.  Tail fields are never required (they routinely overlap
/// interference).
std::optional<Parsed_frame> parse_frame_at(const Bits& bits, std::size_t pilot_pos);

} // namespace anc::phy

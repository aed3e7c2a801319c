// COPE-style digital network coding baseline (Katti et al., SIGCOMM 2006;
// §11.1(b) of the ANC paper).
//
// The router XORs two packets and broadcasts one coded packet; each
// destination XORs again with the packet it already has (its own, or one
// it overheard) to extract the packet it wants.  The coded packet is an
// ordinary PHY frame whose payload is:
//
//     [ header A (64) | header B (64) | XOR of zero-padded payloads ]
//
// so receivers learn *which* two packets were mixed from the payload
// itself, as COPE's packet format does.

#pragma once

#include <optional>

#include "net/packet.h"
#include "phy/header.h"
#include "util/bits.h"

namespace anc::net {

struct Cope_coded {
    phy::Frame_header first;
    phy::Frame_header second;
    Bits xored; // max(len_a, len_b) bits
};

/// Payload of the coded broadcast frame.
Bits cope_encode(const Packet& a, const Packet& b);

/// Parse a coded payload; nothing if either embedded header fails its CRC
/// or the lengths are inconsistent.
std::optional<Cope_coded> cope_parse(const Bits& payload);

/// Extract the counterpart packet given one of the two originals.
/// Returns nothing if `known_header` matches neither embedded header.
std::optional<Packet> cope_decode(const Cope_coded& coded,
                                  const phy::Frame_header& known_header,
                                  const Bits& known_payload);

} // namespace anc::net

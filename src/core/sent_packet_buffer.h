// Sent/overheard packet buffer (§7.3).
//
// A node keeps the frames it transmitted (Alice-Bob, chain) or overheard
// ("X" topology).  When an interfered signal arrives, the decoded header
// identifies which stored frame produced the known half of the collision;
// the stored *on-air* bits provide the known phase-difference sequence.

#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <tuple>

#include "phy/header.h"
#include "util/bits.h"

namespace anc {

struct Stored_frame {
    phy::Frame_header header;
    Bits frame_bits; // full on-air frame bits (payload whitened)
};

class Sent_packet_buffer {
public:
    /// Keep at most `capacity` frames; the oldest is evicted first.
    explicit Sent_packet_buffer(std::size_t capacity = 64);

    void store(Stored_frame frame);

    /// Find by (src, dst, seq) — the identity the header carries.
    const Stored_frame* lookup(const phy::Frame_header& header) const;

    bool contains(const phy::Frame_header& header) const;

    std::size_t size() const { return order_.size(); }

private:
    using Key = std::tuple<std::uint8_t, std::uint8_t, std::uint16_t>;
    static Key key_of(const phy::Frame_header& header);

    std::size_t capacity_;
    std::map<Key, Stored_frame> frames_;
    std::deque<Key> order_;
};

/// A shared, immutable empty buffer for receivers with nothing known
/// (clean hops, snoops).  Constructing a fresh Sent_packet_buffer per
/// receive would heap-allocate in the steady state; this one is built
/// once and only ever read.
const Sent_packet_buffer& empty_sent_packet_buffer();

} // namespace anc

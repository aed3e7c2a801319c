// Trigger protocol (§7.6) and the deliberate partial overlap (§7.2).
//
// A node that wants two neighbours to collide appends a short trigger
// sequence to its transmission; the triggered nodes respond immediately —
// but each first waits a random number of slots (1..32) so that the two
// packets overlap *incompletely*, leaving interference-free pilot regions
// at the head of the first packet and the tail of the second.

#pragma once

#include <cstddef>
#include <utility>

#include "util/bits.h"
#include "util/rng.h"

namespace anc {

inline constexpr std::size_t trigger_length = 16;

/// The fixed trigger bit sequence appended to a transmission.
const Bits& trigger_sequence();

/// True if `bits` ends with the trigger sequence (allowing `max_errors`
/// bit errors).
bool ends_with_trigger(const Bits& bits, std::size_t max_errors = 2);

struct Trigger_config {
    /// Number of backoff slots (§7.2 uses 1..32; we default to 8 — see
    /// slot_symbols below for why fewer, larger slots).
    std::uint32_t slot_count = 8;
    /// Slot size in symbols.  §7.2 says the size depends on rate, packet
    /// size and modulation; the binding constraint is that the clean
    /// (interference-free) region at the head of the first packet and the
    /// tail of the second must cover a full pilot + header (128 bits), or
    /// the receivers cannot synchronize.  140 symbols per slot guarantees
    /// that whenever the two senders draw *different* slots; combined
    /// with 8 slots and ~2300-bit frames this lands the mean overlap near
    /// the paper's reported 80% (§11.4).
    std::size_t slot_symbols = 140;
};

/// Random start delay in symbols: slot * slot_symbols with slot uniform in
/// [1, slot_count].
std::size_t draw_start_delay(Trigger_config config, Pcg32& rng);

/// Start delays for the *two* triggered senders.  The paper "enforces"
/// incomplete overlap (§7.2); we realize that by making the two nodes
/// draw distinct slots (think of the trigger assigning disjoint backoff
/// ranges), which guarantees at least one slot of interference-free
/// signal at the head and tail of the collision.
std::pair<std::size_t, std::size_t> draw_distinct_delays(Trigger_config config, Pcg32& rng);

/// Fraction of the shorter packet overlapped by the longer given the two
/// start offsets and lengths (diagnostic used to report the paper's
/// "average overlap of 80%").
double overlap_fraction(std::size_t start_a, std::size_t len_a,
                        std::size_t start_b, std::size_t len_b);

} // namespace anc

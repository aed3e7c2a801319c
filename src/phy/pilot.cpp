#include "phy/pilot.h"

#include <algorithm>
#include <bit>

#include "util/obs.h"
#include "util/rng.h"
#include "util/simd.h"

namespace anc::phy {

const Bits& pilot_sequence()
{
    // Generated once from a fixed seed: the pilot is part of the protocol,
    // identical at every node, chosen pseudo-randomly (§7.2) so it is
    // unlikely to appear inside scrambled payload.
    static const Bits pilot = [] {
        Pcg32 rng{0x414e435f50494c4full /* "ANC_PILO" */, 7};
        return random_bits(pilot_length, rng);
    }();
    return pilot;
}

const Bits& pilot_mirrored()
{
    static const Bits mirror = mirrored(pilot_sequence());
    return mirror;
}

Packed_pattern::Packed_pattern(const Bits& pattern)
    : length_{pattern.size()}, stride_{(pattern.size() + 126) / 64}
{
    if (length_ == 0)
        return; // degenerate — find_pattern never scans it
    shifted_.assign(64 * stride_, 0);
    masks_.assign(64 * stride_, 0);
    for (std::size_t shift = 0; shift < 64; ++shift) {
        std::uint64_t* copy = shifted_.data() + shift * stride_;
        std::uint64_t* mask = masks_.data() + shift * stride_;
        for (std::size_t i = 0; i < length_; ++i) {
            const std::size_t bit = shift + i;
            copy[bit >> 6] |= static_cast<std::uint64_t>(pattern[i]) << (bit & 63);
            mask[bit >> 6] |= std::uint64_t{1} << (bit & 63);
        }
    }
}

const Packed_pattern& pilot_packed()
{
    static const Packed_pattern packed{pilot_sequence()};
    return packed;
}

const Packed_pattern& pilot_mirrored_packed()
{
    static const Packed_pattern packed{pilot_mirrored()};
    return packed;
}

namespace {

// The scan tracks its running result as a single packed key,
// (errors << 48) | start: taking the minimum key is exactly the scalar
// reference's "first position with the fewest errors" rule (fewer
// errors always wins; among equal error counts the lower start wins),
// and a zero-error key makes errors_of(key) == 0 the reference's
// break-on-perfect-match condition.  errors <= 127 and every start fits
// well inside 48 bits, so no legitimate key collides with no_match.
constexpr std::uint64_t no_match = ~std::uint64_t{0};

inline std::size_t errors_of(std::uint64_t key)
{
    return static_cast<std::size_t>(key >> 48);
}

/// Position-major XOR + popcount scan over starts [from, to], any
/// stride.  The per-word early exit fires only when errors already
/// exceed max_errors — positions it abandons are disqualified either
/// way, so the accumulated key is identical to the reference's result.
/// Dispatches to the popcnt kernel when the SIMD backend is up: this TU
/// builds at the baseline ISA, where std::popcount is a libgcc call per
/// word (see util/simd.h); the kernel is bit-identical, just faster.
void scan_starts(const std::uint64_t* words,
                 const Packed_pattern& pattern,
                 std::size_t from,
                 std::size_t to,
                 std::size_t max_errors,
                 std::uint64_t& best_key)
{
    if (const simd::detail::Lane_kernels* lanes = simd::detail::active_lanes()) {
        lanes->pilot_scan_starts(words, pattern.shifted(0), pattern.mask(0),
                                 pattern.stride(), from, to, max_errors,
                                 &best_key);
        return;
    }
    const std::size_t stride = pattern.stride();
    for (std::size_t start = from; start <= to; ++start) {
        const std::uint64_t* hay = words + (start >> 6);
        const std::uint64_t* copy = pattern.shifted(start & 63);
        const std::uint64_t* mask = pattern.mask(start & 63);
        std::size_t errors = 0;
        for (std::size_t k = 0; k < stride && errors <= max_errors; ++k)
            errors += static_cast<std::size_t>(
                std::popcount((hay[k] ^ copy[k]) & mask[k]));
        if (errors <= max_errors) {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(errors) << 48) | start;
            best_key = std::min(best_key, key);
            if (errors == 0)
                break;
        }
    }
}

/// Stripe-major scan for 2-word patterns (every length in [2, 65], the
/// pilot included) over the word-aligned starts [64*w_lo, 64*w_hi + 63].
/// Fixing the shift in the outer loop keeps the pattern copy and mask in
/// registers, so the inner loop per start is two loads, two XOR+AND+
/// popcount pairs, and a branchless min — roughly 4x fewer instructions
/// than the position-major loop's per-start pattern-row indexing.  Visit
/// order differs from the reference, but the min-key reduction is order
/// independent.
void scan_words_striped(const std::uint64_t* words,
                        const Packed_pattern& pattern,
                        std::size_t w_lo,
                        std::size_t w_hi,
                        std::size_t max_errors,
                        std::uint64_t& best_key)
{
    if (const simd::detail::Lane_kernels* lanes = simd::detail::active_lanes()) {
        lanes->pilot_scan_striped(words, pattern.shifted(0), pattern.mask(0), w_lo,
                                  w_hi, max_errors, &best_key);
        return;
    }
    for (std::size_t s = 0; s < 64; ++s) {
        const std::uint64_t c0 = pattern.shifted(s)[0];
        const std::uint64_t c1 = pattern.shifted(s)[1];
        const std::uint64_t m0 = pattern.mask(s)[0];
        const std::uint64_t m1 = pattern.mask(s)[1];
        for (std::size_t w = w_lo; w <= w_hi; ++w) {
            const auto errors = static_cast<std::size_t>(
                                    std::popcount((words[w] ^ c0) & m0)) +
                                static_cast<std::size_t>(
                                    std::popcount((words[w + 1] ^ c1) & m1));
            if (errors <= max_errors) {
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(errors) << 48) | (w * 64 + s);
                best_key = std::min(best_key, key);
            }
        }
    }
}

/// The sliding scan.  Semantics are pinned to the scalar reference
/// loop: clamp both bounds to the last fitting start, return the first
/// position with the fewest errors, stop scanning on a zero-error
/// match.  2-word patterns run stripe-major over the interior words in
/// chunks (so the zero-error break still skips the remainder of a long
/// span), with the ragged edges of [from, to] covered position-major.
std::optional<Pattern_match> scan_packed(const Bits& haystack,
                                         const Packed_pattern& pattern,
                                         std::size_t from,
                                         std::size_t to,
                                         std::size_t max_errors)
{
    const std::size_t last_start = haystack.size() - pattern.length();
    from = std::min(from, last_start);
    to = std::min(to, last_start);
    if (from > to)
        return std::nullopt;

    const std::uint64_t* words = haystack.data();
    std::uint64_t best_key = no_match;

    // Word w is interior when all 64 of its starts lie inside [from, to].
    const std::size_t w_lo = (from + 63) >> 6;
    const bool interior =
        pattern.stride() == 2 && to >= 63 && ((to - 63) >> 6) >= w_lo;
    if (!interior) {
        scan_starts(words, pattern, from, to, max_errors, best_key);
    } else {
        const std::size_t w_hi = (to - 63) >> 6;
        if (w_lo * 64 > from)
            scan_starts(words, pattern, from, w_lo * 64 - 1, max_errors,
                        best_key);
        constexpr std::size_t chunk_words = 16; // 1024 starts per zero check
        for (std::size_t w = w_lo; w <= w_hi && errors_of(best_key) != 0;
             w += chunk_words)
            scan_words_striped(words, pattern, w,
                               std::min(w_hi, w + chunk_words - 1), max_errors,
                               best_key);
        if (errors_of(best_key) != 0 && (w_hi + 1) * 64 <= to)
            scan_starts(words, pattern, (w_hi + 1) * 64, to, max_errors,
                        best_key);
    }

    if (best_key == no_match)
        return std::nullopt;
    return Pattern_match{best_key & ((std::uint64_t{1} << 48) - 1),
                         errors_of(best_key)};
}

void tally_outcome(const std::optional<Pattern_match>& best)
{
    if (best) {
        obs::count(obs::Counter::pilot_hits);
        obs::count(obs::Counter::pilot_hit_offset_sum, best->position);
        obs::count(obs::Counter::pilot_hit_error_sum, best->errors);
    } else {
        obs::count(obs::Counter::pilot_misses);
    }
}

} // namespace

std::optional<Pattern_match> find_pattern(const Bits& bits,
                                          const Packed_pattern& pattern,
                                          std::size_t from,
                                          std::size_t to,
                                          std::size_t max_errors)
{
    if (pattern.length() == 0 || bits.size() < pattern.length()) {
        obs::count(obs::Counter::pilot_degenerate);
        return std::nullopt;
    }
    const obs::Stage_timer timer{obs::Stage::pilot_search};
    obs::count(obs::Counter::pilot_searches);
    const std::optional<Pattern_match> best =
        scan_packed(bits, pattern, from, to, max_errors);
    tally_outcome(best);
    return best;
}

std::optional<Pattern_match> find_pattern(const Bits& bits,
                                          const Bits& pattern,
                                          std::size_t from,
                                          std::size_t to,
                                          std::size_t max_errors)
{
    // The two protocol patterns are pre-packed once per process; packing
    // an arbitrary pattern per call is a cold path (tests, tooling).
    if (&pattern == &pilot_sequence())
        return find_pattern(bits, pilot_packed(), from, to, max_errors);
    if (&pattern == &pilot_mirrored())
        return find_pattern(bits, pilot_mirrored_packed(), from, to, max_errors);
    return find_pattern(bits, Packed_pattern{pattern}, from, to, max_errors);
}

std::optional<Pattern_match> find_pattern_scalar(const Bits& bits,
                                                 const Bits& pattern,
                                                 std::size_t from,
                                                 std::size_t to,
                                                 std::size_t max_errors)
{
    if (pattern.empty() || bits.size() < pattern.size())
        return std::nullopt;
    const std::size_t last_start = bits.size() - pattern.size();
    from = std::min(from, last_start);
    to = std::min(to, last_start);
    if (from > to)
        return std::nullopt;

    std::optional<Pattern_match> best;
    for (std::size_t start = from; start <= to; ++start) {
        std::size_t errors = 0;
        for (std::size_t i = 0; i < pattern.size() && errors <= max_errors; ++i)
            errors += (bits[start + i] != pattern[i]);
        if (errors <= max_errors && (!best || errors < best->errors)) {
            best = Pattern_match{start, errors};
            if (errors == 0)
                break;
        }
    }
    return best;
}

std::optional<Pattern_match> find_pilot(const Bits& bits, std::size_t max_errors)
{
    if (bits.size() < pilot_length)
        return std::nullopt;
    return find_pattern(bits, pilot_packed(), 0, bits.size() - pilot_length, max_errors);
}

} // namespace anc::phy

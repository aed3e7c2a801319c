#include "core/trigger.h"

#include <algorithm>
#include <bit>

namespace anc {

const Bits& trigger_sequence()
{
    static const Bits trigger = [] {
        Pcg32 rng{0x414e435f54524947ull /* "ANC_TRIG" */, 11};
        return random_bits(trigger_length, rng);
    }();
    return trigger;
}

bool ends_with_trigger(const Bits& bits, std::size_t max_errors)
{
    const Bits& trigger = trigger_sequence();
    if (bits.size() < trigger.size())
        return false;
    const std::uint64_t tail = bits.extract(bits.size() - trigger.size(), trigger_length);
    return static_cast<std::size_t>(std::popcount(tail ^ trigger.data()[0])) <= max_errors;
}

std::size_t draw_start_delay(Trigger_config config, Pcg32& rng)
{
    const std::uint32_t slot = rng.next_in_range(1, config.slot_count);
    return static_cast<std::size_t>(slot) * config.slot_symbols;
}

std::pair<std::size_t, std::size_t> draw_distinct_delays(Trigger_config config, Pcg32& rng)
{
    const std::uint32_t first = rng.next_in_range(1, config.slot_count);
    std::uint32_t second = first;
    while (second == first)
        second = rng.next_in_range(1, config.slot_count);
    return {static_cast<std::size_t>(first) * config.slot_symbols,
            static_cast<std::size_t>(second) * config.slot_symbols};
}

double overlap_fraction(std::size_t start_a, std::size_t len_a,
                        std::size_t start_b, std::size_t len_b)
{
    const std::size_t end_a = start_a + len_a;
    const std::size_t end_b = start_b + len_b;
    const std::size_t begin = std::max(start_a, start_b);
    const std::size_t end = std::min(end_a, end_b);
    if (end <= begin)
        return 0.0;
    const std::size_t shorter = std::min(len_a, len_b);
    if (shorter == 0)
        return 0.0;
    return static_cast<double>(end - begin) / static_cast<double>(shorter);
}

} // namespace anc

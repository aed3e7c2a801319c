#include "dsp/dpsk.h"

#include <cmath>
#include <stdexcept>

#include "dsp/ops.h"
#include "util/phase.h"

namespace anc::dsp {

std::size_t dqpsk_symbol_for_bits(std::uint8_t b0, std::uint8_t b1)
{
    // Gray order 00, 01, 11, 10 mapped to indices 0..3.
    if (!b0)
        return b1 ? 1 : 0;
    return b1 ? 2 : 3;
}

std::pair<std::uint8_t, std::uint8_t> dqpsk_bits_for_symbol(std::size_t symbol)
{
    switch (symbol & 3u) {
    case 0: return {0, 0};
    case 1: return {0, 1};
    case 2: return {1, 1};
    default: return {1, 0};
    }
}

std::size_t dqpsk_nearest_symbol(double phase_difference)
{
    std::size_t best = 0;
    double best_distance = phase_distance(phase_difference, dqpsk_steps[0]);
    for (std::size_t s = 1; s < dqpsk_steps.size(); ++s) {
        const double distance = phase_distance(phase_difference, dqpsk_steps[s]);
        if (distance < best_distance) {
            best_distance = distance;
            best = s;
        }
    }
    return best;
}

std::vector<double> dqpsk_phase_steps_for_bits(const Bits& bits)
{
    if (bits.size() % 2 != 0)
        throw std::invalid_argument{"dqpsk: bit count must be even"};
    std::vector<double> steps;
    steps.reserve(bits.size() / 2);
    for (std::size_t i = 0; i < bits.size(); i += 2)
        steps.push_back(dqpsk_steps[dqpsk_symbol_for_bits(bits[i], bits[i + 1])]);
    return steps;
}

Dqpsk_modulator::Dqpsk_modulator(double amplitude, double initial_phase,
                                 Math_profile profile)
    : amplitude_{amplitude}, initial_phase_{initial_phase}, profile_{profile}
{
}

Signal Dqpsk_modulator::modulate(const Bits& bits) const
{
    const std::vector<double> steps = dqpsk_phase_steps_for_bits(bits);
    std::vector<double> phases;
    phases.reserve(steps.size() + 1);
    double phase = initial_phase_;
    phases.push_back(phase);
    for (const double step : steps) {
        phase = wrap_phase(phase + step);
        phases.push_back(phase);
    }
    Signal signal;
    polar_into(phases, amplitude_, profile_, signal);
    return signal;
}

Dqpsk_demodulator::Dqpsk_demodulator(Math_profile profile)
    : profile_{profile}
{
}

Bits Dqpsk_demodulator::demodulate(Signal_view signal) const
{
    Bits bits;
    if (signal.size() < 2)
        return bits;
    bits.reserve(2 * (signal.size() - 1));
    for (std::size_t n = 0; n + 1 < signal.size(); ++n) {
        const double diff = profile_arg(profile_, signal[n + 1] * std::conj(signal[n]));
        const auto [b0, b1] = dqpsk_bits_for_symbol(dqpsk_nearest_symbol(diff));
        bits.push_back(b0);
        bits.push_back(b1);
    }
    return bits;
}

} // namespace anc::dsp

#include "dsp/msk.h"

#include <numbers>

#include "util/phase.h"
#include "util/simd.h"

namespace anc::dsp {

double msk_phase_step(std::uint8_t bit)
{
    constexpr double half_pi = std::numbers::pi / 2.0;
    return bit ? half_pi : -half_pi;
}

std::vector<double> phase_differences_for_bits(const Bits& bits)
{
    std::vector<double> steps;
    phase_differences_for_bits_into(bits, steps);
    return steps;
}

void phase_differences_for_bits_into(const Bits& bits, std::vector<double>& out)
{
    // Presized indexed writes let the ±π/2 select compile to a vector
    // blend; push_back's size bump kept the historical loop scalar.
    out.resize(bits.size());
    double* steps = out.data();
    for (std::size_t i = 0; i < bits.size(); ++i)
        steps[i] = msk_phase_step(bits[i]);
}

Msk_modulator::Msk_modulator(double amplitude, double initial_phase,
                             Math_profile profile)
    : amplitude_{amplitude}, initial_phase_{initial_phase}, profile_{profile}
{
}

Signal Msk_modulator::modulate(const Bits& bits) const
{
    Signal signal;
    modulate_into(bits, signal);
    return signal;
}

void Msk_modulator::modulate_into(const Bits& bits, Signal& out) const
{
    out.clear();
    if (profile_ != Math_profile::exact) {
        // A ±π/2 phase step is multiplication by ±i, a lossless component
        // swap/negate: the envelope stays exactly amplitude_ and every
        // sample is the initial one rotated by a multiple of π/2.  The
        // lane kernel reads the quadrant after each bit off the words'
        // prefix parity — bit-identical to iterating multiplication by ±i
        // (a sign flip on a zero component included).  Only the initial
        // sample differs from the exact path (fast_sincos vs libm,
        // low-order bits).
        double s = 0.0;
        double c = 0.0;
        fast_sincos(initial_phase_, s, c);
        const double re = amplitude_ * c;
        const double im = amplitude_ * s;
        out.resize(bits.size() + 1);
        out[0] = Sample{re, im};
        simd::msk_modulate(bits.data(), bits.size(), re, im,
                           reinterpret_cast<double*>(out.data() + 1));
        return;
    }
    // The step is a table pick, not a branch: scrambled bits are random,
    // and a data-dependent jump mispredicts on half of them.
    constexpr double half_pi = std::numbers::pi / 2.0;
    constexpr double steps[2] = {-half_pi, half_pi};
    out.reserve(bits.size() + 1);
    double phase = initial_phase_;
    out.push_back(std::polar(amplitude_, phase));
    bool unbounded = true; // the caller's initial phase may exceed 2*pi
    const std::uint64_t* words = bits.data();
    for (std::size_t n = 0; n < bits.size(); ++n) {
        const double stepped = phase + steps[(words[n >> 6] >> (n & 63)) & 1u];
        // After the first wrap the accumulator lives in (-pi, pi], so a
        // step keeps it within the branch-only fold's exact domain.
        phase = unbounded ? wrap_phase(stepped) : wrap_phase_bounded(stepped);
        unbounded = false;
        out.push_back(std::polar(amplitude_, phase));
    }
}

Bits Msk_demodulator::demodulate(Signal_view signal) const
{
    Bits bits;
    demodulate_into(signal, bits);
    return bits;
}

void Msk_demodulator::demodulate_into(Signal_view signal, Bits& out) const
{
    out.clear();
    if (signal.size() < 2)
        return;
    // The hard decisions are exact (sign tests on the products
    // std::complex multiplication performs), so every profile shares
    // the lane kernel; see simd::msk_decide for the signed-zero rule.
    out.resize(signal.size() - 1);
    simd::msk_decide(reinterpret_cast<const double*>(signal.data()), out.size(),
                     out.data());
}

std::vector<double> Msk_demodulator::phase_differences(Signal_view signal) const
{
    std::vector<double> diffs;
    if (signal.size() < 2)
        return diffs;
    diffs.reserve(signal.size() - 1);
    for (std::size_t n = 0; n + 1 < signal.size(); ++n)
        diffs.push_back(std::arg(signal[n + 1] * std::conj(signal[n])));
    return diffs;
}

} // namespace anc::dsp

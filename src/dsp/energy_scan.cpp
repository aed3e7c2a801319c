#include "dsp/energy_scan.h"

#include <stdexcept>

#include "util/simd.h"

namespace anc::dsp {

std::vector<double> sample_energies(Signal_view signal)
{
    std::vector<double> energies;
    sample_energies_into(signal, energies);
    return energies;
}

void sample_energies_into(Signal_view signal, std::vector<double>& out)
{
    const std::size_t n = signal.size();
    out.resize(n);
    const double* data = reinterpret_cast<const double*>(signal.data());
    double* e = out.data();
    for (std::size_t i = 0; i < n; ++i) {
        // Exactly std::norm: re*re + im*im.
        e[i] = data[2 * i] * data[2 * i] + data[2 * i + 1] * data[2 * i + 1];
    }
}

double mean_energy(Signal_view signal)
{
    if (signal.empty())
        return 0.0;
    const double* data = reinterpret_cast<const double*>(signal.data());
    const std::size_t n = signal.size();
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += data[2 * i] * data[2 * i] + data[2 * i + 1] * data[2 * i + 1];
    return total / static_cast<double>(n);
}

Energy_scan scan_energy(Signal_view signal, std::size_t window)
{
    Energy_scan scan;
    scan.window = window;
    scan_energy_into(signal, window, scan.window_mean, scan.window_variance);
    return scan;
}

// The historical scan was one fused loop: the sliding sums and then a
// mean/variance per window.  simd::window_stats keeps its recurrence
// serial and in order and runs the rest on the lanes: same operations
// per element, same order within each element, so the scan is
// byte-identical to the fused loop (tests/dsp/energy_scan_test.cpp pins
// this against a reference transcription of it).  The detectors run the
// same scan with their thresholds folded in.

void scan_energy_into(Signal_view signal, std::size_t window,
                      std::vector<double>& window_mean,
                      std::vector<double>& window_variance)
{
    if (window == 0)
        throw std::invalid_argument{"scan_energy: window must be positive"};
    window_mean.clear();
    window_variance.clear();
    if (signal.size() < window)
        return;

    window_mean.resize(signal.size() - window + 1);
    window_variance.resize(window_mean.size());
    simd::window_stats(reinterpret_cast<const double*>(signal.data()),
                       window_mean.size(), window, window_mean.data(),
                       window_variance.data());
}

} // namespace anc::dsp

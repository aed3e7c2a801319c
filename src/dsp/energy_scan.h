// Windowed energy statistics over a sample stream.
//
// The receiver front-end of §7.1 makes two decisions from energy alone:
//   1. packet present?   — mean energy well above the noise floor;
//   2. interference?     — the energy of a single MSK signal is nearly
//      constant (constant envelope), so a large *variance* of the energy
//      betrays a collision: |y|^2 swings between (A+B)^2 and (A-B)^2.
// This module provides those moving-window scans (on the simd lane
// kernels; phy::Packet_detector and phy::Interference_detector run the
// same kernels with their thresholds folded in).

#pragma once

#include <cstddef>
#include <vector>

#include "dsp/sample.h"

namespace anc::dsp {

/// Instantaneous energy |y[n]|^2 for every sample.
std::vector<double> sample_energies(Signal_view signal);

/// As above, into a caller-owned buffer (cleared first) — the amplitude
/// estimator feeds this from a dsp::Workspace lease so its per-receive
/// scans do not allocate in steady state.
void sample_energies_into(Signal_view signal, std::vector<double>& out);

/// Mean of |y|^2 over the whole signal (0 for an empty signal).
double mean_energy(Signal_view signal);

/// Moving-window statistics of the sample energy.  Window w starting at
/// index n covers samples [n, n+w); there are len-w+1 windows.
struct Energy_scan {
    std::vector<double> window_mean;     // mean of |y|^2 per window
    std::vector<double> window_variance; // population variance of |y|^2 per window
    std::size_t window = 0;
};

/// Compute the scan in O(len) using running sums of |y|^2 and |y|^4
/// (simd::window_stats).
Energy_scan scan_energy(Signal_view signal, std::size_t window);

/// As above, writing the window series into caller-owned buffers
/// (cleared first).  Bit-identical to scan_energy.
void scan_energy_into(Signal_view signal, std::size_t window,
                      std::vector<double>& window_mean,
                      std::vector<double>& window_variance);

} // namespace anc::dsp

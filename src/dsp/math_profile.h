// The math-profile seam: one enum that selects, at every transcendental
// call site of the sample pipeline, between the bit-exact libm kernels
// and the fast approximate ones (util/fastmath.h).
//
//   exact — byte-identical to the historical implementation.  Every
//           golden test, sweep JSON, and figure reproduction runs here
//           by default; nothing about this profile may drift.
//   fast  — polynomial transcendentals and counter-based noise.  Batch
//           call sites (interference decode, AWGN fill, DQPSK polar,
//           channel mix) run on the runtime-dispatched lane kernels of
//           util/simd.h; single-sample call sites use the scalar fast
//           kernels of util/fastmath.h.  The lanes are bit-compatible
//           with the scalar kernels, so a fast document is byte-identical
//           on every backend (AVX-512, AVX2, scalar).  Outputs differ
//           from `exact` in low-order bits (and the noise stream is a
//           different, equally-valid realization), so results are
//           validated *statistically*: the corridor tests
//           (tests/engine/math_profile_corridor_test.cpp) bound the
//           BER/delivery-rate deviation from `exact`, per the
//           relaxed-determinism design in PERF.md "Math profiles".
//
// Call sites branch on the profile (`profile == Math_profile::exact`)
// with the exact expression kept verbatim in the exact arm.

#pragma once

#include <algorithm>
#include <complex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/fastmath.h"

namespace anc::dsp {

enum class Math_profile {
    exact, ///< libm + sequential Box–Muller; the determinism contract
    fast,  ///< fastmath + lane kernels, counter-based noise; corridor-validated
};

inline const char* to_string(Math_profile profile)
{
    switch (profile) {
    case Math_profile::exact: return "exact";
    case Math_profile::fast: return "fast";
    }
    return "exact";
}

/// Parse "exact" / "fast"; throws std::invalid_argument otherwise.
inline Math_profile math_profile_from_string(std::string_view name)
{
    if (name == "exact")
        return Math_profile::exact;
    if (name == "fast")
        return Math_profile::fast;
    throw std::invalid_argument{"unknown math profile '" + std::string{name}
                                + "' (want exact or fast)"};
}

/// Parse a profile list: a comma list of profile names, or "both"
/// (exact,fast).  The one parser behind anc_sweep's --math-profile and
/// the bench drivers' ANC_MATH_PROFILE.  Throws std::invalid_argument on
/// an unknown name or an empty list.
inline std::vector<Math_profile> math_profiles_from_string(std::string_view text)
{
    if (text == "both")
        return {Math_profile::exact, Math_profile::fast};
    std::vector<Math_profile> profiles;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = std::min(text.find(',', pos), text.size());
        if (comma > pos)
            profiles.push_back(math_profile_from_string(text.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    if (profiles.empty())
        throw std::invalid_argument{"empty math profile list"};
    return profiles;
}

/// Profile-dispatched atan2.
inline double profile_atan2(Math_profile profile, double y, double x)
{
    return profile == Math_profile::exact ? std::atan2(y, x) : fast_atan2(y, x);
}

/// Profile-dispatched std::arg.
inline double profile_arg(Math_profile profile, std::complex<double> value)
{
    return profile == Math_profile::exact ? std::arg(value)
                                          : fast_atan2(value.imag(), value.real());
}

/// Profile-dispatched std::polar (magnitude · e^{i·angle}).
inline std::complex<double> profile_polar(Math_profile profile, double magnitude,
                                          double angle)
{
    if (profile == Math_profile::exact)
        return std::polar(magnitude, angle);
    double s = 0.0;
    double c = 0.0;
    fast_sincos(angle, s, c);
    return {magnitude * c, magnitude * s};
}

} // namespace anc::dsp

// The lane-kernel backend of the fast math profile (dsp/math_profile.h),
// and of the exact-shared kernels every profile runs.
//
// Design contract — *bit-compatibility with the scalar kernels*: every
// batch kernel here computes, per element, exactly the arithmetic of its
// scalar counterpart in util/fastmath.h / util/rng.h / simd.cpp (same
// operations, same order, no FMA contraction in the value chains), just
// several lanes at a time.  IEEE-754 arithmetic is deterministic, so the
// AVX-512 lanes, the AVX2 lanes and the scalar fallback produce
// byte-identical values.  That one invariant buys the whole validation
// story:
//
//   * the fast profile's statistical corridors hold on every backend;
//   * dispatch is *safe to decide per run*: a run on an AVX-512 box,
//     under ANC_FORCE_AVX2_SIMD=1, under ANC_FORCE_SCALAR_SIMD=1, and on
//     a machine without AVX2 emit byte-identical documents (the
//     integration.dispatch_invariance ctest diffs the three);
//   * the lane-vs-scalar tests (tests/util/simd_kernels_test.cpp) can
//     assert exact equality — the strongest possible ULP bound (0).
//
// Dispatch model: `active_backend()` is decided once per process from
// anc::cpu_features() (AVX2 and FMA both required; AVX-512F upgrades to
// the 8-wide lanes) and two environment overrides: ANC_FORCE_SCALAR_SIMD
// (any non-empty value other than "0" forces the scalar fallback) and
// ANC_FORCE_AVX2_SIMD (same rule; caps the backend at avx2 on AVX-512
// hardware).  The overrides keep every tier continuously tested on the
// widest hardware, in CI and locally; force-scalar wins when both are
// set.  The batch entry points below run the full lane blocks through
// the active backend's kernel table and the tail through the scalar
// reference.
//
// The kernel table (detail::Lane_kernels) holds the math lanes (atan2,
// sincos, log, polar), the interference decoder's (anc_candidates,
// anc_select, diff_arg), the channel accumulates (rotor_accumulate,
// cmul_accumulate), the Counter_normal pair (counter_normal_fill,
// counter_normal_add_scaled), the fast MSK modulator (msk_modulate),
// the bit-domain pilot scans (pilot_scan_starts, pilot_scan_striped) and
// the receiver front end: the detector scans (window_stats,
// mean_above_mask, excess_ratio_mask) and the MSK decisions
// (msk_decide).  The pilot scans and the front end approximate nothing,
// so every profile — exact included — runs them.
//
// The lanes are written once, in src/util/simd_lanes.cpp, and compiled
// twice: with -mavx2 -mfma (4 doubles per vector) and with -mavx512f (8
// doubles), both with -ffp-contract=off so the compiler cannot fuse the
// mul/add chains the bit-compatibility contract pins down.  The two
// objects are the only code built above the baseline ISA; each exports
// one kernel table (detail::Lane_kernels) and nothing else, and nothing
// in them is reachable except through the dispatch in simd.cpp.

#pragma once

#include <cstddef>
#include <cstdint>

namespace anc::simd {

/// Which implementation the batch kernels resolve to this run.
enum class Backend {
    scalar, ///< the existing fast kernels, looped — guaranteed everywhere
    avx2,   ///< explicit AVX2+FMA lanes (4 doubles wide)
    avx512, ///< the same lanes at AVX-512F width (8 doubles wide)
};

inline const char* to_string(Backend backend)
{
    switch (backend) {
    case Backend::avx512: return "avx512";
    case Backend::avx2: return "avx2";
    case Backend::scalar: break;
    }
    return "scalar";
}

/// The pure dispatch rule: scalar when forced or when the CPU lacks
/// AVX2+FMA (the avx2 TU is compiled with -mavx2 -mfma); avx512 when the
/// CPU additionally reports AVX-512F and no cap is in force; avx2
/// otherwise.  Force-scalar beats force-avx2.  Exposed separately from
/// active_backend() so the decision logic is unit-testable without
/// faking CPUID or the environment.
Backend resolve_backend(bool cpu_has_avx2, bool cpu_has_fma, bool cpu_has_avx512f,
                        bool force_scalar, bool force_avx2);

/// True when ANC_FORCE_SCALAR_SIMD is set to a non-empty value other
/// than "0" in this process's environment.
bool force_scalar_from_env();

/// True when ANC_FORCE_AVX2_SIMD is set to a non-empty value other than
/// "0" in this process's environment (caps avx512 hardware at avx2).
bool force_avx2_from_env();

/// The backend every batch kernel below uses, decided once per run
/// (first call) from cpu_features(), ANC_FORCE_SCALAR_SIMD, and
/// ANC_FORCE_AVX2_SIMD.
Backend active_backend();

/// active_backend() != Backend::scalar — some lane kernel TU is in use.
bool kernels_active();

// ------------------------------------------------------------- kernels
// All kernels accept any n; the lane paths handle the full 8-wide
// (avx512) or 4-wide (avx2) blocks and hand the tail to the scalar
// fallback (which is element-wise identical, so the seam is invisible
// in the output).

/// out[i] = fast_atan2(y[i], x[i]).
void atan2_batch(const double* y, const double* x, double* out, std::size_t n);

/// (sin_out[i], cos_out[i]) = fast_sincos(angles[i]).  Same domain note
/// as fast_sincos: |angle| ≲ 1e6.
void sincos_batch(const double* angles, double* sin_out, double* cos_out,
                  std::size_t n);

/// out[i] = fast_log(x[i]); positive normal doubles only (fast_log's
/// documented domain).
void log_batch(const double* x, double* out, std::size_t n);

/// interleaved_out[2i] = magnitude·cos(angles[i]),
/// interleaved_out[2i+1] = magnitude·sin(angles[i]) — the batched
/// profile_polar the DQPSK modulator and rotor setup use.
void polar_batch(const double* angles, double magnitude, double* interleaved_out,
                 std::size_t n);

/// The Eq. 7 candidate generation of the interference decoder, SoA: for
/// each interleaved complex sample y, emit the four wrapped candidate
/// phases (theta+, theta-, phi-, phi+) into split arrays.  Element-wise
/// identical to the fast profile's candidate loop
/// (core/interference_decoder.cpp).
void anc_candidates_batch(const double* interleaved_samples, std::size_t count,
                          double a, double b, double* theta_plus,
                          double* theta_minus, double* phi_minus,
                          double* phi_plus);

/// The Eq. 8 branchless candidate selection over the split arrays: for
/// transition n (0-based), pick among the four (theta, phi) difference
/// candidates the one whose theta step best matches known_diffs[n], with
/// the exact iteration-order tie-break of the sequential scan.  Writes
/// phi_out[n] and error_out[n] for n in [0, transitions).
void anc_select_batch(const double* theta_plus, const double* theta_minus,
                      const double* phi_minus, const double* phi_plus,
                      const double* known_diffs, std::size_t transitions,
                      double* phi_out, double* error_out);

/// Differential demodulation over the unknown region: out[n] =
/// fast_atan2 of y[n+1]·conj(y[n]) for n in [0, transitions), reading
/// interleaved samples [0, transitions].
void diff_arg_batch(const double* interleaved_samples, std::size_t transitions,
                    double* out);

/// The drift-free channel accumulate (Link_channel's constant-rotor
/// path) over interleaved complex buffers:
///   acc[2i]   += in[2i]·re − in[2i+1]·im
///   acc[2i+1] += in[2i]·im + in[2i+1]·re     for i in [0, samples).
/// Element-wise independent mul/add with no FMA contraction, so the
/// lane tiers are bit-identical to the scalar loop.
void rotor_accumulate(const double* interleaved_in, double* interleaved_acc,
                      std::size_t samples, double rotor_re, double rotor_im);

/// The drifting-channel accumulate over a precomputed rotor stream
/// (Link_channel regenerates rotor_n = rotor_0·step^n from per-link
/// checkpoints, several spans at a time, instead of one serial chain):
///   acc[2i]   += in[2i]·rot[2i] − in[2i+1]·rot[2i+1]
///   acc[2i+1] += in[2i]·rot[2i+1] + in[2i+1]·rot[2i]
/// i.e. element-wise complex multiply-accumulate, bit-identical across
/// tiers (mul/sub/add per element, no FMA, no reassociation).
void cmul_accumulate(const double* interleaved_in, const double* interleaved_rotors,
                     double* interleaved_acc, std::size_t samples);

// ------------------------------------------------ receiver front end
// The §7.1 detector scans and the §5.3 MSK decisions.  They are
// exact-shared: nothing in them is approximated, so every profile runs
// them, and the exact profile's byte identity rests on the lane/scalar
// bit-compatibility above.
//
// The scans compute the moving-window statistics of the sample energy
// e[i] = re_i·re_i + im_i·im_i (std::norm's arithmetic) over the
// windows [k, k + window) of n interleaved complex samples, k in
// [0, windows), windows = n − window + 1 ≥ 1.  Window 0's sums start
// from zero; window k's follow the historical recurrence
//   sum    += e[k − 1 + window] − e[k − 1]
//   sum_sq += e[k − 1 + window]·e[k − 1 + window] − e[k − 1]·e[k − 1]
// — an IEEE addition chain whose order is the byte-identity contract of
// every scan, so it runs serially, in window order, on every tier, while
// the lanes compute the deltas ahead of it and finalize the windows
// behind it.  Per window:
//   mean     = sum·(1/window) for a power-of-two window (an exact
//              scaling, so it rounds like the divide), sum / window
//              otherwise;
//   variance = sum_sq·(1/window) − mean·mean (or sum_sq / window − …),
//              clamped by `variance < 0.0 ? 0.0 : variance`, which
//              keeps a -0.0.
// The masks put window k's decision in bit k % 64 of mask[k / 64]; all
// (windows + 63) / 64 words are written and the bits past the last
// window are zero.

/// The per-window means and variances (dsp::scan_energy_into).
void window_stats(const double* interleaved_samples, std::size_t windows,
                  std::size_t window, double* mean, double* variance);

/// The packet detector's scan: bit k is mean_k > threshold (NaN is never
/// above).
void mean_above_mask(const double* interleaved_samples, std::size_t windows,
                     std::size_t window, double threshold, std::uint64_t* mask);

/// The interference analyzer's scan: window k's excess-variance ratio
///   ratio = variance / (2·max(mean − σ², 1e-12)·σ² + σ²·σ²),
/// σ² = noise_power, thresholded into bit k (ratio > threshold) and
/// folded into the running *peak (in/out) as std::max(peak, ratio),
/// which skips NaN ratios.
void excess_ratio_mask(const double* interleaved_samples, std::size_t windows,
                       std::size_t window, double noise_power, double threshold,
                       std::uint64_t* mask, double* peak);

/// MSK hard decisions, packed: bit n of the words (bit n % 64 of word
/// n / 64) is 1 iff arg(y[n+1]·conj(y[n])) >= 0, for n in [0,
/// transitions), reading interleaved samples [0, transitions].  Decided
/// from the signs of the ratio's parts (no atan2), with the products
/// std::complex multiplication performs.  All ceil(transitions / 64)
/// words are written; bits past the last transition are zero.
void msk_decide(const double* interleaved_samples, std::size_t transitions,
                std::uint64_t* words);

/// The fast MSK modulator's samples after each bit of a packed sequence
/// (util/bits.h layout).  Every sample is the initial one (re, im)
/// rotated by a multiple of π/2, and the quadrant after bit n is
///   (3·(n + 1) + 2·parity(bits[0..n])) & 3
/// (a 1 steps +1, a 0 steps +3 ≡ −1): quadrant q's sample is
/// (re, im), (−im, re), (−re, −im) or (im, −re), negation being an exact
/// sign flip.  Writes interleaved_out[2n], [2n + 1] for n in [0, count).
void msk_modulate(const std::uint64_t* words, std::size_t count, double re, double im,
                  double* interleaved_out);

namespace detail {

// The scalar references: the fast kernels, looped.  They serve the
// scalar backend and every lane tail, and the 0-ULP tests compare each
// lane kernel against them.

void atan2_batch_scalar(const double* y, const double* x, double* out,
                        std::size_t n);
void sincos_batch_scalar(const double* angles, double* sin_out, double* cos_out,
                         std::size_t n);
void log_batch_scalar(const double* x, double* out, std::size_t n);
void polar_batch_scalar(const double* angles, double magnitude,
                        double* interleaved_out, std::size_t n);
void anc_candidates_batch_scalar(const double* interleaved_samples,
                                 std::size_t count, double a, double b,
                                 double* theta_plus, double* theta_minus,
                                 double* phi_minus, double* phi_plus);
void anc_select_batch_scalar(const double* theta_plus, const double* theta_minus,
                             const double* phi_minus, const double* phi_plus,
                             const double* known_diffs, std::size_t transitions,
                             double* phi_out, double* error_out);
void diff_arg_batch_scalar(const double* interleaved_samples,
                           std::size_t transitions, double* out);
void rotor_accumulate_scalar(const double* interleaved_in,
                             double* interleaved_acc, std::size_t samples,
                             double rotor_re, double rotor_im);
void cmul_accumulate_scalar(const double* interleaved_in,
                            const double* interleaved_rotors,
                            double* interleaved_acc, std::size_t samples);
// The scans' references run windows [first, first + n) of the stream
// at interleaved_samples, carrying the running sums in `carry` (sum, then
// sum_sq) from the call that ran the windows before; first == 0 starts
// the sums from zero.  Outputs are indexed by absolute window: mean[k],
// bit k of mask.  A mask piece starts on a word boundary (first % 64 ==
// 0) and writes its words whole.
void window_stats_scalar(const double* interleaved_samples, std::size_t first,
                         std::size_t n, std::size_t window, double* carry,
                         double* mean, double* variance);
void mean_above_mask_scalar(const double* interleaved_samples, std::size_t first,
                            std::size_t n, std::size_t window, double* carry,
                            double threshold, std::uint64_t* mask);
void excess_ratio_mask_scalar(const double* interleaved_samples, std::size_t first,
                              std::size_t n, std::size_t window, double* carry,
                              double noise_power, double threshold,
                              std::uint64_t* mask, double* peak);
void msk_decide_scalar(const double* interleaved_samples, std::size_t transitions,
                       std::uint64_t* words);
// Bits [first, first + count), written at their absolute positions.
void msk_modulate_scalar(const std::uint64_t* words, std::size_t first,
                         std::size_t count, double re, double im,
                         double* interleaved_out);

/// One lane backend: the kernels of util/simd_lanes.cpp as compiled at
/// one vector width.  Each entry has the signature of the public kernel
/// of the same name above and requires a block-aligned size — n (or
/// samples, transitions) % width == 0, count % (2·width) == 0 for the
/// Counter_normal pair, none for the pilot scans, n % 64 == 0 (whole
/// words) for msk_decide and msk_modulate.  The detector scans
/// take the *_scalar signatures with first >= 1 (window 0 is always the
/// scalar code's), n % width == 0, and for the two masks first % 64 ==
/// 0 and n % 64 == 0 (whole mask words).  The dispatchers split every
/// call into a lane head and a scalar tail.
struct Lane_kernels {
    std::size_t width; ///< doubles per lane vector: 4 (avx2) or 8 (avx512)
    void (*atan2)(const double* y, const double* x, double* out, std::size_t n);
    void (*sincos)(const double* angles, double* sin_out, double* cos_out,
                   std::size_t n);
    void (*log)(const double* x, double* out, std::size_t n);
    void (*polar)(const double* angles, double magnitude, double* interleaved_out,
                  std::size_t n);
    void (*anc_candidates)(const double* interleaved_samples, std::size_t count,
                           double a, double b, double* theta_plus,
                           double* theta_minus, double* phi_minus,
                           double* phi_plus);
    void (*anc_select)(const double* theta_plus, const double* theta_minus,
                       const double* phi_minus, const double* phi_plus,
                       const double* known_diffs, std::size_t transitions,
                       double* phi_out, double* error_out);
    void (*diff_arg)(const double* interleaved_samples, std::size_t transitions,
                     double* out);
    void (*rotor_accumulate)(const double* interleaved_in, double* interleaved_acc,
                             std::size_t samples, double rotor_re,
                             double rotor_im);
    void (*cmul_accumulate)(const double* interleaved_in,
                            const double* interleaved_rotors,
                            double* interleaved_acc, std::size_t samples);
    /// Counter_normal::fill / add_scaled at counters first_counter + i,
    /// bit-identical to the scalar generator (util/rng.cpp dispatches).
    void (*counter_normal_fill)(std::uint64_t key_a, std::uint64_t key_b,
                                std::uint64_t first_counter, double* out,
                                std::size_t count);
    void (*counter_normal_add_scaled)(std::uint64_t key_a, std::uint64_t key_b,
                                      std::uint64_t first_counter, double scale,
                                      double* inout, std::size_t count);
    /// Bit-domain pilot scans (phy/pilot.cpp): integer-exact XOR +
    /// popcount loops, in the lane objects only for the hardware popcnt
    /// instruction (baseline x86-64 predates POPCNT and compiles
    /// std::popcount to a libgcc call).  best_key accumulates
    /// min((errors << 48) | start); see pilot.cpp.
    void (*pilot_scan_starts)(const std::uint64_t* words,
                              const std::uint64_t* shifted,
                              const std::uint64_t* masks, std::size_t stride,
                              std::size_t from, std::size_t to,
                              std::size_t max_errors, std::uint64_t* best_key);
    /// Stride-2 stripe-major variant over word-aligned starts
    /// [64*w_lo, 64*w_hi + 63]; shifted/masks are the 64x2 tables.
    void (*pilot_scan_striped)(const std::uint64_t* words,
                               const std::uint64_t* shifted,
                               const std::uint64_t* masks, std::size_t w_lo,
                               std::size_t w_hi, std::size_t max_errors,
                               std::uint64_t* best_key);
    /// The receiver front end: the detector scans and the MSK decisions.
    void (*window_stats)(const double* interleaved_samples, std::size_t first,
                         std::size_t n, std::size_t window, double* carry,
                         double* mean, double* variance);
    void (*mean_above_mask)(const double* interleaved_samples, std::size_t first,
                            std::size_t n, std::size_t window, double* carry,
                            double threshold, std::uint64_t* mask);
    void (*excess_ratio_mask)(const double* interleaved_samples, std::size_t first,
                              std::size_t n, std::size_t window, double* carry,
                              double noise_power, double threshold,
                              std::uint64_t* mask, double* peak);
    void (*msk_decide)(const double* interleaved_samples, std::size_t transitions,
                       std::uint64_t* words);
    void (*msk_modulate)(const std::uint64_t* words, std::size_t count, double re,
                         double im, double* interleaved_out);
};

/// The lane kernels of `backend`; nullptr for Backend::scalar and for a
/// backend this build has no lane object for (non-x86-64).  Calling
/// through a table the CPU cannot run is undefined — the tests check
/// cpu_features() first.
const Lane_kernels* lane_kernels(Backend backend);

/// lane_kernels(active_backend()): nullptr when the scalar code serves.
const Lane_kernels* active_lanes();

} // namespace detail

} // namespace anc::simd

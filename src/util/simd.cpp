#include "util/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numbers>
#include <string_view>

#include "util/cpu_features.h"
#include "util/fastmath.h"

// Dispatchers and the scalar reference implementations.  This TU is
// compiled at the baseline architecture, so every function here runs on
// any x86-64 (or non-x86) machine; the lane kernel tables of
// simd_lanes.cpp are only ever reached through active_lanes().
//
// The scalar references ARE the fast kernels, looped — the guaranteed
// fallback of the dispatch contract, and the tail of every lane call.

namespace anc::simd {

namespace detail {

namespace {

/// wrap_phase_bounded with branchless control flow — the same kernel the
/// interference decoder's fast path uses (value-identical to
/// wrap_phase_bounded on |angle| <= 2*pi, boundary cases included).
inline double wrap_branchless(double angle)
{
    constexpr double two_pi = 2.0 * std::numbers::pi;
    const double up = angle <= -std::numbers::pi ? two_pi : 0.0;
    const double down = angle > std::numbers::pi ? two_pi : 0.0;
    return angle + up - down;
}

inline double distance_branchless(double a, double b)
{
    return std::abs(wrap_branchless(a - b));
}

/// Population variance from the scaled sum of squares; tiny negatives
/// from cancellation clamp to zero (the comparison form keeps a -0.0
/// exactly as the historical `if (variance < 0.0) variance = 0.0;` did).
inline double clamped_variance(double scaled_sum_sq, double mean)
{
    const double variance = scaled_sum_sq - mean * mean;
    return variance < 0.0 ? 0.0 : variance;
}

inline double energy_at(const double* interleaved_samples, std::size_t i)
{
    // Exactly std::norm: re*re + im*im.
    return interleaved_samples[2 * i] * interleaved_samples[2 * i]
           + interleaved_samples[2 * i + 1] * interleaved_samples[2 * i + 1];
}

inline double excess_ratio(double mean, double variance, double sigma2,
                           double noise_variance)
{
    // Variance a clean constant-envelope signal of this power would
    // show: cross term 2*|s|^2*sigma^2 plus the noise-energy variance
    // sigma^4.  (|s|^2 ~ window mean minus the noise floor.)
    const double signal_power = std::max(mean - sigma2, 1e-12);
    return variance / (2.0 * signal_power * sigma2 + noise_variance);
}

} // namespace

void atan2_batch_scalar(const double* y, const double* x, double* out,
                        std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = fast_atan2(y[i], x[i]);
}

void sincos_batch_scalar(const double* angles, double* sin_out, double* cos_out,
                         std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        fast_sincos(angles[i], sin_out[i], cos_out[i]);
}

void log_batch_scalar(const double* x, double* out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = fast_log(x[i]);
}

void polar_batch_scalar(const double* angles, double magnitude,
                        double* interleaved_out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        double s = 0.0;
        double c = 0.0;
        fast_sincos(angles[i], s, c);
        interleaved_out[2 * i] = magnitude * c;
        interleaved_out[2 * i + 1] = magnitude * s;
    }
}

void anc_candidates_batch_scalar(const double* interleaved_samples,
                                 std::size_t count, double a, double b,
                                 double* theta_plus, double* theta_minus,
                                 double* phi_minus, double* phi_plus)
{
    // The fast profile's candidate loop (the decoder's historical fast
    // path, now with this as its single source of truth): the four
    // Eq. 7 candidates factor through arg(y) — with T = A+Bd+iB√ and
    // P = B+Ad+iA√, theta± = arg(y) ± arg(T) and phi∓ = arg(y) ∓ arg(P)
    // (arg of a product is the wrapped sum of args).  Three atan2 per
    // sample instead of four, and arg(T), arg(P) live in [0, π]
    // (√ ≥ 0), so every sum is in (−2π, 2π) — the exact domain of the
    // branch-only wrap.  The iterations are independent and
    // branch-light, so the atan2 calls pipeline across samples.
    const double a2b2 = a * a + b * b;
    const double inv_2ab = 1.0 / (2.0 * a * b);
    for (std::size_t i = 0; i < count; ++i) {
        const double re = interleaved_samples[2 * i];
        const double im = interleaved_samples[2 * i + 1];
        const double norm = re * re + im * im;
        const double d_raw = (norm - a2b2) * inv_2ab;
        const double d = std::clamp(d_raw, -1.0, 1.0);
        const double root = std::sqrt(std::max(1.0 - d * d, 0.0));
        const double wy = fast_atan2(im, re);
        const double wt = fast_atan2(b * root, a + b * d);
        const double wp = fast_atan2(a * root, b + a * d);
        theta_plus[i] = wrap_branchless(wy + wt);
        theta_minus[i] = wrap_branchless(wy - wt);
        phi_minus[i] = wrap_branchless(wy - wp);
        phi_plus[i] = wrap_branchless(wy + wp);
    }
}

void anc_select_batch_scalar(const double* theta_plus, const double* theta_minus,
                             const double* phi_minus, const double* phi_plus,
                             const double* known_diffs, std::size_t transitions,
                             double* phi_out, double* error_out)
{
    const double* tp = theta_plus;
    const double* tm = theta_minus;
    const double* pm = phi_minus;
    const double* pp = phi_plus;
    for (std::size_t n = 0; n < transitions; ++n) {
        const double known = known_diffs[n];
        const auto error_of = [known](double theta_next, double theta_cur) {
            return distance_branchless(wrap_branchless(theta_next - theta_cur),
                                       known);
        };
        // The four candidates in the exact path's iteration order (next
        // 0/1 x cur 0/1), reduced with strict-< so the earliest minimum
        // wins ties exactly as the sequential scan does.
        const double e00 = error_of(tp[n + 1], tp[n]);
        const double e01 = error_of(tp[n + 1], tm[n]);
        const double e10 = error_of(tm[n + 1], tp[n]);
        const double e11 = error_of(tm[n + 1], tm[n]);
        const double p00 = wrap_branchless(pm[n + 1] - pm[n]);
        const double p01 = wrap_branchless(pm[n + 1] - pp[n]);
        const double p10 = wrap_branchless(pp[n + 1] - pm[n]);
        const double p11 = wrap_branchless(pp[n + 1] - pp[n]);
        const bool b01 = e01 < e00;
        const double ea = b01 ? e01 : e00;
        const double pa = b01 ? p01 : p00;
        const bool b11 = e11 < e10;
        const double eb = b11 ? e11 : e10;
        const double pb = b11 ? p11 : p10;
        const bool bb = eb < ea;
        phi_out[n] = bb ? pb : pa;
        error_out[n] = bb ? eb : ea;
    }
}

void diff_arg_batch_scalar(const double* interleaved_samples,
                           std::size_t transitions, double* out)
{
    for (std::size_t n = 0; n < transitions; ++n) {
        const double ar = interleaved_samples[2 * n];
        const double ai = interleaved_samples[2 * n + 1];
        const double br = interleaved_samples[2 * n + 2];
        const double bi = interleaved_samples[2 * n + 3];
        // arg(next * conj(cur)), with the products std::complex
        // multiplication performs.
        out[n] = fast_atan2(br * -ai + bi * ar, br * ar - bi * -ai);
    }
}

void rotor_accumulate_scalar(const double* interleaved_in,
                             double* interleaved_acc, std::size_t samples,
                             double rotor_re, double rotor_im)
{
    // Must match Link_channel's historical constant-rotor loop operation
    // for operation (channel/link.cpp).
    for (std::size_t i = 0; i < samples; ++i) {
        const double re = interleaved_in[2 * i];
        const double im = interleaved_in[2 * i + 1];
        interleaved_acc[2 * i] += re * rotor_re - im * rotor_im;
        interleaved_acc[2 * i + 1] += re * rotor_im + im * rotor_re;
    }
}

void cmul_accumulate_scalar(const double* interleaved_in,
                            const double* interleaved_rotors,
                            double* interleaved_acc, std::size_t samples)
{
    // Per-element arithmetic of the historical drifting-rotor loop
    // (channel/link.cpp), with the rotor read from the cached stream
    // instead of carried through the recurrence.
    for (std::size_t i = 0; i < samples; ++i) {
        const double re = interleaved_in[2 * i];
        const double im = interleaved_in[2 * i + 1];
        const double rr = interleaved_rotors[2 * i];
        const double ri = interleaved_rotors[2 * i + 1];
        interleaved_acc[2 * i] += re * rr - im * ri;
        interleaved_acc[2 * i + 1] += re * ri + im * rr;
    }
}

namespace {

/// Calls scan(scale) with the per-window divide of the scans.  x / 2^k
/// and x · 2^-k round identically for every double (scaling by an exact
/// power of two), so for a power-of-two window — both detector windows,
/// 16 and 64 — the divide becomes a multiply without changing a bit.
/// Two loop versions, so neither carries the other's arithmetic.
/// (simd_lanes.cpp repeats this: the lane objects include no shared
/// inline code.)
template <class Scan>
void with_window_scale(std::size_t window, Scan&& scan)
{
    const auto w = static_cast<double>(window);
    if ((window & (window - 1)) == 0) {
        const double inv_w = 1.0 / w;
        scan([inv_w](double sum) { return sum * inv_w; });
    } else {
        scan([w](double sum) { return sum / w; });
    }
}

/// The historical scan loop over windows [first, first + n), handing
/// each window's (index, mean) to `sink`.
template <class Sink>
void means_loop(const double* samples, std::size_t first, std::size_t n,
                std::size_t window, double* carry, Sink&& sink)
{
    double sum = *carry;
    with_window_scale(window, [&](auto scale) {
        std::size_t k = first;
        if (k == 0 && n != 0) {
            sum = 0.0;
            for (std::size_t i = 0; i < window; ++i)
                sum += energy_at(samples, i);
            sink(k++, scale(sum));
        }
        for (; k < first + n; ++k) {
            sum += energy_at(samples, k - 1 + window) - energy_at(samples, k - 1);
            sink(k, scale(sum));
        }
    });
    *carry = sum;
}

/// As means_loop with the second chain, handing (index, mean, variance).
template <class Sink>
void stats_loop(const double* samples, std::size_t first, std::size_t n,
                std::size_t window, double* carry, Sink&& sink)
{
    double sum = carry[0];
    double sum_sq = carry[1];
    with_window_scale(window, [&](auto scale) {
        const auto emit = [&](std::size_t k) {
            const double mean = scale(sum);
            sink(k, mean, clamped_variance(scale(sum_sq), mean));
        };
        std::size_t k = first;
        if (k == 0 && n != 0) {
            sum = 0.0;
            sum_sq = 0.0;
            for (std::size_t i = 0; i < window; ++i) {
                const double e = energy_at(samples, i);
                sum += e;
                sum_sq += e * e;
            }
            emit(k++);
        }
        for (; k < first + n; ++k) {
            const double in = energy_at(samples, k - 1 + window);
            const double out = energy_at(samples, k - 1);
            sum += in - out;
            sum_sq += in * in - out * out;
            emit(k);
        }
    });
    carry[0] = sum;
    carry[1] = sum_sq;
}

/// A mask scan's bits, collected in a register and stored a word at a
/// time.  Every piece of a scan starts on a word boundary (split_scan),
/// so each word is written once, by the piece that holds its windows.
class Mask_bits {
public:
    explicit Mask_bits(std::uint64_t* mask) : mask_{mask} {}

    void add(std::size_t k, bool on)
    {
        word_ |= static_cast<std::uint64_t>(on) << (k % 64);
        if (k % 64 == 63) {
            mask_[k / 64] = word_;
            word_ = 0;
        }
    }

    /// Stores the partial word of a piece that ends at window `end`.
    void finish(std::size_t end)
    {
        if (end % 64 != 0)
            mask_[end / 64] = word_;
    }

private:
    std::uint64_t* mask_;
    std::uint64_t word_ = 0;
};

} // namespace

void window_stats_scalar(const double* samples, std::size_t first, std::size_t n,
                         std::size_t window, double* carry, double* mean,
                         double* variance)
{
    stats_loop(samples, first, n, window, carry,
               [mean, variance](std::size_t k, double m, double v) {
                   mean[k] = m;
                   variance[k] = v;
               });
}

void mean_above_mask_scalar(const double* samples, std::size_t first, std::size_t n,
                            std::size_t window, double* carry, double threshold,
                            std::uint64_t* mask)
{
    if (n == 0)
        return;
    Mask_bits bits{mask};
    means_loop(samples, first, n, window, carry, [&](std::size_t k, double m) {
        bits.add(k, m > threshold);
    });
    bits.finish(first + n);
}

void excess_ratio_mask_scalar(const double* samples, std::size_t first,
                              std::size_t n, std::size_t window, double* carry,
                              double noise_power, double threshold,
                              std::uint64_t* mask, double* peak)
{
    if (n == 0)
        return;
    const double noise_variance = noise_power * noise_power;
    double top = *peak;
    Mask_bits bits{mask};
    stats_loop(samples, first, n, window, carry,
               [&](std::size_t k, double m, double v) {
                   const double ratio = excess_ratio(m, v, noise_power, noise_variance);
                   top = std::max(top, ratio);
                   bits.add(k, ratio > threshold);
               });
    bits.finish(first + n);
    *peak = top;
}

void msk_decide_scalar(const double* interleaved_samples, std::size_t transitions,
                       std::uint64_t* words)
{
    for (std::size_t w = 0; w * 64 < transitions; ++w) {
        std::uint64_t word = 0;
        const std::size_t end = std::min(transitions, w * 64 + 64);
        for (std::size_t n = w * 64; n < end; ++n) {
            // The rule is arg(y[n+1] * conj(y[n])) >= 0 — h and gamma
            // cancel (Eq. 1), so no channel estimate is needed.  atan2 is
            // monotone in the quadrant structure, so the decision only
            // depends on the signs of the ratio's parts:
            //   im > 0            -> arg in (0, pi)      -> 1
            //   im < 0            -> arg in (-pi, 0)     -> 0
            //   im == +0.0        -> arg is +0 or +pi    -> 1
            //   im == -0.0        -> arg is -0 (re >= +0) or -pi (re < 0)
            //                        and -0.0 >= 0.0 holds -> !signbit(re)
            // The products are exactly the ones std::complex
            // multiplication performs, so im/re match the arg-based path
            // bit for bit.
            const double ar = interleaved_samples[2 * n];
            const double ai = interleaved_samples[2 * n + 1];
            const double br = interleaved_samples[2 * n + 2];
            const double bi = interleaved_samples[2 * n + 3];
            const double im = br * -ai + bi * ar;
            bool one = im > 0.0;
            if (im == 0.0)
                one = !std::signbit(im) || !std::signbit(br * ar - bi * -ai);
            word |= static_cast<std::uint64_t>(one) << (n & 63);
        }
        words[w] = word;
    }
}

void msk_modulate_scalar(const std::uint64_t* words, std::size_t first,
                         std::size_t count, double re, double im,
                         double* interleaved_out)
{
    // The four quadrant samples, interleaved; -x is an exact sign flip.
    const double quadrant[8] = {re, im, -im, re, -re, -im, im, -re};
    std::uint64_t before = 0; // XOR of the bits before `first`
    for (std::size_t k = 0; k < first / 64; ++k)
        before ^= words[k];
    if (first % 64 != 0)
        before ^= words[first / 64] & ((std::uint64_t{1} << (first % 64)) - 1);
    unsigned parity = static_cast<unsigned>(__builtin_parityll(before));
    for (std::size_t n = first; n < first + count; ++n) {
        parity ^= static_cast<unsigned>(words[n >> 6] >> (n & 63)) & 1u;
        const std::size_t q = (3 * (n + 1) + 2 * parity) & 3u;
        interleaved_out[2 * n] = quadrant[2 * q];
        interleaved_out[2 * n + 1] = quadrant[2 * q + 1];
    }
}

} // namespace detail

Backend resolve_backend(bool cpu_has_avx2, bool cpu_has_fma, bool cpu_has_avx512f,
                        bool force_scalar, bool force_avx2)
{
    if (force_scalar || !cpu_has_avx2 || !cpu_has_fma)
        return Backend::scalar;
    if (force_avx2 || !cpu_has_avx512f)
        return Backend::avx2;
    return Backend::avx512;
}

namespace {

bool env_flag(const char* name)
{
    const char* env = std::getenv(name);
    return env != nullptr && *env != '\0' && std::string_view{env} != "0";
}

} // namespace

bool force_scalar_from_env() { return env_flag("ANC_FORCE_SCALAR_SIMD"); }

bool force_avx2_from_env() { return env_flag("ANC_FORCE_AVX2_SIMD"); }

Backend active_backend()
{
    // Decided once per run: CPUID does not change under a process, and a
    // stable decision is what makes the fast profile's determinism
    // arguments ("bit-identical at any thread count") trivially hold.
    static const Backend backend = resolve_backend(
        cpu_features().avx2, cpu_features().fma, cpu_features().avx512f,
        force_scalar_from_env(), force_avx2_from_env());
    return backend;
}

#if defined(__x86_64__)
// The two objects built from simd_lanes.cpp (x86-64 only, matching the
// CMake guard); each defines one of these.
namespace detail {
extern const Lane_kernels avx2_kernels;
extern const Lane_kernels avx512_kernels;
} // namespace detail
#endif

const detail::Lane_kernels* detail::lane_kernels(Backend backend)
{
#if defined(__x86_64__)
    switch (backend) {
    case Backend::avx512: return &avx512_kernels;
    case Backend::avx2: return &avx2_kernels;
    case Backend::scalar: break;
    }
#else
    (void)backend;
#endif
    return nullptr;
}

const detail::Lane_kernels* detail::active_lanes()
{
    static const Lane_kernels* const lanes = lane_kernels(active_backend());
    return lanes;
}

bool kernels_active()
{
    return detail::active_lanes() != nullptr;
}

// ---------------------------------------------------------- dispatchers
// Full lane blocks go to the active kernel table; tails (and the scalar
// backend) go to the scalar reference.  All tiers are element-wise
// identical, so the split point is invisible in the output.

namespace {

/// The part of n the active lanes take: whole vectors, none for scalar.
inline std::size_t lane_head(std::size_t n)
{
    const detail::Lane_kernels* lanes = detail::active_lanes();
    return lanes == nullptr ? 0 : n & ~(lanes->width - 1);
}

} // namespace

void atan2_batch(const double* y, const double* x, double* out, std::size_t n)
{
    const std::size_t head = lane_head(n);
    if (head != 0)
        detail::active_lanes()->atan2(y, x, out, head);
    detail::atan2_batch_scalar(y + head, x + head, out + head, n - head);
}

void sincos_batch(const double* angles, double* sin_out, double* cos_out,
                  std::size_t n)
{
    const std::size_t head = lane_head(n);
    if (head != 0)
        detail::active_lanes()->sincos(angles, sin_out, cos_out, head);
    detail::sincos_batch_scalar(angles + head, sin_out + head, cos_out + head,
                                n - head);
}

void log_batch(const double* x, double* out, std::size_t n)
{
    const std::size_t head = lane_head(n);
    if (head != 0)
        detail::active_lanes()->log(x, out, head);
    detail::log_batch_scalar(x + head, out + head, n - head);
}

void polar_batch(const double* angles, double magnitude, double* interleaved_out,
                 std::size_t n)
{
    const std::size_t head = lane_head(n);
    if (head != 0)
        detail::active_lanes()->polar(angles, magnitude, interleaved_out, head);
    detail::polar_batch_scalar(angles + head, magnitude,
                               interleaved_out + 2 * head, n - head);
}

void anc_candidates_batch(const double* interleaved_samples, std::size_t count,
                          double a, double b, double* theta_plus,
                          double* theta_minus, double* phi_minus, double* phi_plus)
{
    const std::size_t head = lane_head(count);
    if (head != 0)
        detail::active_lanes()->anc_candidates(interleaved_samples, head, a, b,
                                               theta_plus, theta_minus, phi_minus,
                                               phi_plus);
    detail::anc_candidates_batch_scalar(interleaved_samples + 2 * head,
                                        count - head, a, b, theta_plus + head,
                                        theta_minus + head, phi_minus + head,
                                        phi_plus + head);
}

void anc_select_batch(const double* theta_plus, const double* theta_minus,
                      const double* phi_minus, const double* phi_plus,
                      const double* known_diffs, std::size_t transitions,
                      double* phi_out, double* error_out)
{
    const std::size_t head = lane_head(transitions);
    if (head != 0)
        detail::active_lanes()->anc_select(theta_plus, theta_minus, phi_minus,
                                           phi_plus, known_diffs, head, phi_out,
                                           error_out);
    detail::anc_select_batch_scalar(theta_plus + head, theta_minus + head,
                                    phi_minus + head, phi_plus + head,
                                    known_diffs + head, transitions - head,
                                    phi_out + head, error_out + head);
}

void diff_arg_batch(const double* interleaved_samples, std::size_t transitions,
                    double* out)
{
    const std::size_t head = lane_head(transitions);
    if (head != 0)
        detail::active_lanes()->diff_arg(interleaved_samples, head, out);
    detail::diff_arg_batch_scalar(interleaved_samples + 2 * head,
                                  transitions - head, out + head);
}

void rotor_accumulate(const double* interleaved_in, double* interleaved_acc,
                      std::size_t samples, double rotor_re, double rotor_im)
{
    const std::size_t head = lane_head(samples);
    if (head != 0)
        detail::active_lanes()->rotor_accumulate(interleaved_in, interleaved_acc,
                                                 head, rotor_re, rotor_im);
    detail::rotor_accumulate_scalar(interleaved_in + 2 * head,
                                    interleaved_acc + 2 * head, samples - head,
                                    rotor_re, rotor_im);
}

void cmul_accumulate(const double* interleaved_in, const double* interleaved_rotors,
                     double* interleaved_acc, std::size_t samples)
{
    const std::size_t head = lane_head(samples);
    if (head != 0)
        detail::active_lanes()->cmul_accumulate(interleaved_in, interleaved_rotors,
                                                interleaved_acc, head);
    detail::cmul_accumulate_scalar(interleaved_in + 2 * head,
                                   interleaved_rotors + 2 * head,
                                   interleaved_acc + 2 * head, samples - head);
}

namespace {

/// Runs windows [0, windows) of a detector scan in three pieces: the
/// scalar code from window 0 (which has no predecessor) up to `granule`,
/// the active lanes over whole granules, the scalar code over the rest —
/// the running sums passed along in `carry`.  granule is a multiple of
/// every lane width (and 64 for the masks).
template <class Scalar, class Lanes>
void split_scan(std::size_t windows, std::size_t granule, Scalar&& scalar,
                Lanes&& lanes)
{
    const std::size_t lane_start = std::min(windows, granule);
    scalar(std::size_t{0}, lane_start);
    const std::size_t head = detail::active_lanes() == nullptr
                                 ? 0
                                 : (windows - lane_start) / granule * granule;
    if (head != 0)
        lanes(*detail::active_lanes(), lane_start, head);
    scalar(lane_start + head, windows - lane_start - head);
}

} // namespace

void window_stats(const double* interleaved_samples, std::size_t windows,
                  std::size_t window, double* mean, double* variance)
{
    double carry[2] = {0.0, 0.0};
    split_scan(
        windows, 8,
        [&](std::size_t first, std::size_t n) {
            detail::window_stats_scalar(interleaved_samples, first, n, window, carry,
                                        mean, variance);
        },
        [&](const detail::Lane_kernels& lanes, std::size_t first, std::size_t n) {
            lanes.window_stats(interleaved_samples, first, n, window, carry, mean,
                               variance);
        });
}

void mean_above_mask(const double* interleaved_samples, std::size_t windows,
                     std::size_t window, double threshold, std::uint64_t* mask)
{
    double carry = 0.0;
    split_scan(
        windows, 64,
        [&](std::size_t first, std::size_t n) {
            detail::mean_above_mask_scalar(interleaved_samples, first, n, window,
                                           &carry, threshold, mask);
        },
        [&](const detail::Lane_kernels& lanes, std::size_t first, std::size_t n) {
            lanes.mean_above_mask(interleaved_samples, first, n, window, &carry,
                                  threshold, mask);
        });
}

void excess_ratio_mask(const double* interleaved_samples, std::size_t windows,
                       std::size_t window, double noise_power, double threshold,
                       std::uint64_t* mask, double* peak)
{
    double carry[2] = {0.0, 0.0};
    split_scan(
        windows, 64,
        [&](std::size_t first, std::size_t n) {
            detail::excess_ratio_mask_scalar(interleaved_samples, first, n, window,
                                             carry, noise_power, threshold, mask,
                                             peak);
        },
        [&](const detail::Lane_kernels& lanes, std::size_t first, std::size_t n) {
            lanes.excess_ratio_mask(interleaved_samples, first, n, window, carry,
                                    noise_power, threshold, mask, peak);
        });
}

void msk_decide(const double* interleaved_samples, std::size_t transitions,
                std::uint64_t* words)
{
    const std::size_t head =
        detail::active_lanes() == nullptr ? 0 : transitions & ~std::size_t{63};
    if (head != 0)
        detail::active_lanes()->msk_decide(interleaved_samples, head, words);
    detail::msk_decide_scalar(interleaved_samples + 2 * head, transitions - head,
                              words + head / 64);
}

void msk_modulate(const std::uint64_t* words, std::size_t count, double re, double im,
                  double* interleaved_out)
{
    const std::size_t head =
        detail::active_lanes() == nullptr ? 0 : count & ~std::size_t{63};
    if (head != 0)
        detail::active_lanes()->msk_modulate(words, head, re, im, interleaved_out);
    detail::msk_modulate_scalar(words, head, count - head, re, im, interleaved_out);
}

} // namespace anc::simd

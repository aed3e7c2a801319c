// The SIMD backend's two contracts (util/simd.h):
//
//   1. dispatch — resolve_backend() is a pure, testable rule; the AVX2
//      lanes are only reachable when CPUID proves AVX2+FMA, the AVX-512
//      lanes additionally require the AVX-512F flag, and the
//      ANC_FORCE_SCALAR_SIMD / ANC_FORCE_AVX2_SIMD overrides step the
//      decision down.
//   2. bit-compatibility — every lane kernel equals the scalar fast
//      kernel it transcribes, element for element, bit for bit.  The
//      "ULP bound" of every kernel is therefore 0, which these tests
//      assert with exact == comparisons (through bit patterns, so
//      -0.0 vs +0.0 discrepancies cannot hide).
//
// The avx2 table vs scalar comparisons run only on hardware where CPUID
// reports AVX2+FMA, and the avx512 ones only where it also reports
// AVX-512F (anywhere else the narrower backend is active and there is
// nothing to compare); the public batch API is additionally compared
// against direct fast-kernel loops on every machine, covering the
// dispatcher's block/tail seam at awkward lengths.  The receiver front
// end's scans and MSK decisions are held to the historical scan loop and
// the arg rule the same way.

#include "util/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dsp/energy_scan.h"
#include "util/cpu_features.h"
#include "util/fastmath.h"
#include "util/rng.h"

namespace anc::simd {
namespace {

bool avx2_available()
{
    return cpu_features().avx2 && cpu_features().fma;
}

bool avx512_available()
{
    return avx2_available() && cpu_features().avx512f;
}

void expect_same_bits(double a, double b, const char* what, std::size_t i)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << what << " lane " << i << ": " << a << " vs " << b;
}

std::vector<double> random_range(std::size_t count, double lo, double hi,
                                 std::uint64_t seed)
{
    Pcg32 rng{seed, 11};
    std::vector<double> out(count);
    for (double& v : out)
        v = lo + (hi - lo) * rng.next_double();
    return out;
}

TEST(SimdBackend, ResolveBackendRule)
{
    // (avx2, fma, avx512f, force_scalar, force_avx2)
    EXPECT_EQ(resolve_backend(true, true, false, false, false), Backend::avx2);
    EXPECT_EQ(resolve_backend(true, true, true, false, false), Backend::avx512);
    EXPECT_EQ(resolve_backend(true, true, true, false, true), Backend::avx2);
    EXPECT_EQ(resolve_backend(true, true, true, true, false), Backend::scalar);
    // force_scalar beats force_avx2 when both overrides are set.
    EXPECT_EQ(resolve_backend(true, true, true, true, true), Backend::scalar);
    EXPECT_EQ(resolve_backend(true, true, false, true, false), Backend::scalar);
    EXPECT_EQ(resolve_backend(false, true, false, false, false), Backend::scalar);
    EXPECT_EQ(resolve_backend(true, false, false, false, false), Backend::scalar);
    // force_avx2 never upgrades a machine that resolves to scalar.
    EXPECT_EQ(resolve_backend(false, false, false, false, true), Backend::scalar);
    EXPECT_EQ(resolve_backend(false, false, false, false, false), Backend::scalar);
    EXPECT_STREQ(to_string(Backend::avx512), "avx512");
    EXPECT_STREQ(to_string(Backend::avx2), "avx2");
    EXPECT_STREQ(to_string(Backend::scalar), "scalar");
}

TEST(SimdBackend, ActiveBackendMatchesCpuAndOverride)
{
    // The process-wide decision must agree with the pure rule applied to
    // this process's actual CPUID and environment.
    EXPECT_EQ(active_backend(),
              resolve_backend(cpu_features().avx2, cpu_features().fma,
                              cpu_features().avx512f, force_scalar_from_env(),
                              force_avx2_from_env()));
    EXPECT_EQ(kernels_active(), active_backend() != Backend::scalar);
}

TEST(SimdBackend, CpuFeatureImplications)
{
    // CPUID sanity: AVX2 without AVX (or AVX-512F without AVX2) would
    // mean the probe mis-read a leaf.
    if (cpu_features().avx2) {
        EXPECT_TRUE(cpu_features().avx);
    }
    if (cpu_features().avx512f) {
        EXPECT_TRUE(cpu_features().avx2);
    }
}

// ----------------------------------------------- batch API == fast loop
// Awkward lengths exercise the AVX2 block / scalar tail seam.

constexpr std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 31, 100, 1023};

TEST(SimdKernels, Atan2BatchMatchesFastAtan2)
{
    for (const std::size_t n : lengths) {
        const std::vector<double> y = random_range(n, -10.0, 10.0, 0xA1);
        const std::vector<double> x = random_range(n, -10.0, 10.0, 0xA2);
        std::vector<double> out(n);
        atan2_batch(y.data(), x.data(), out.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            expect_same_bits(out[i], fast_atan2(y[i], x[i]), "atan2", i);
    }
}

TEST(SimdKernels, Atan2BatchEdgeCases)
{
    // Quadrants, axes, and signed zeros — where octant assembly and
    // copysign must match std::atan2's conventions exactly.
    const std::vector<double> y = {0.0,  -0.0, 0.0,  -0.0, 1.0, -1.0,
                                   1.0,  -1.0, 5.0,  -5.0, 0.0, -0.0,
                                   1e-9, 1e9,  -1e9, 2.5};
    const std::vector<double> x = {0.0,  0.0,  -0.0, -0.0, 0.0,  0.0,
                                   1.0,  1.0,  -3.0, -3.0, 7.0,  7.0,
                                   1e9,  1e-9, 1e-9, -2.5};
    std::vector<double> out(y.size());
    atan2_batch(y.data(), x.data(), out.data(), y.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        expect_same_bits(out[i], fast_atan2(y[i], x[i]), "atan2-edge", i);
}

TEST(SimdKernels, SincosBatchMatchesFastSincos)
{
    for (const std::size_t n : lengths) {
        const std::vector<double> angles = random_range(n, -1000.0, 1000.0, 0xB1);
        std::vector<double> s(n);
        std::vector<double> c(n);
        sincos_batch(angles.data(), s.data(), c.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            double se = 0.0;
            double ce = 0.0;
            fast_sincos(angles[i], se, ce);
            expect_same_bits(s[i], se, "sin", i);
            expect_same_bits(c[i], ce, "cos", i);
        }
    }
}

TEST(SimdKernels, LogBatchMatchesFastLog)
{
    for (const std::size_t n : lengths) {
        std::vector<double> x = random_range(n, 1e-12, 4.0, 0xC1);
        std::vector<double> out(n);
        log_batch(x.data(), out.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            expect_same_bits(out[i], fast_log(x[i]), "log", i);
    }
}

TEST(SimdKernels, PolarBatchMatchesFastLoop)
{
    for (const std::size_t n : lengths) {
        const std::vector<double> angles = random_range(n, -8.0, 8.0, 0xD1);
        std::vector<double> out(2 * n);
        polar_batch(angles.data(), 0.83, out.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            double s = 0.0;
            double c = 0.0;
            fast_sincos(angles[i], s, c);
            expect_same_bits(out[2 * i], 0.83 * c, "polar-re", i);
            expect_same_bits(out[2 * i + 1], 0.83 * s, "polar-im", i);
        }
    }
}

// ------------------------------------------ lane tables vs scalar
// Each lane width's kernel table (the two objects built from
// util/simd_lanes.cpp) against the scalar references, head to head, on
// sizes that are whole lane blocks at both widths.  This is the
// lane-vs-scalar proof that also stands in for the "native vs
// ANC_FORCE_SCALAR_SIMD dispatch" bit-identity claim (a forced-scalar
// process runs exactly detail::*_scalar); the avx2 table runs only
// where CPUID reports AVX2+FMA, the avx512 table only where it also
// reports AVX-512F.

// The receiver front end's inputs: Gaussian samples around a stretch of
// constant envelope (whose window variances cancel below zero before the
// clamp: sum_sq/w - mean^2 rounds negative) and a run of exact zeros of
// both signs.  (The clamp's -0.0 case needs a scaled sum of squares that
// rounds to -0.0; these samples do not reach it.  Lanes and scalar code
// run the same `v < 0.0 ? 0.0 : v` comparison, which lets a -0.0 through
// on both.)
std::vector<double> front_end_samples(std::size_t count, std::uint64_t seed)
{
    std::vector<double> x = random_range(2 * count, -1.5, 1.5, seed);
    for (std::size_t i = count / 4; i < count / 2; ++i) {
        const double phase = 0.37 * static_cast<double>(i);
        x[2 * i] = 1.3 * std::cos(phase);
        x[2 * i + 1] = 1.3 * std::sin(phase);
    }
    for (std::size_t i = count / 2; i < count / 2 + 40 && i < count; ++i) {
        x[2 * i] = i % 2 == 0 ? 0.0 : -0.0;
        x[2 * i + 1] = i % 3 == 0 ? -0.0 : 0.0;
    }
    return x;
}

/// Interleaved samples drawn from {±1, ±0, 0.5, -2}: consecutive pairs
/// hit every mix of signed zeros and signs in a transition's ratio parts.
std::vector<double> signed_zero_samples(std::size_t count, std::uint64_t seed)
{
    const double values[] = {1.0, -1.0, 0.0, -0.0, 0.5, -2.0};
    Pcg32 rng{seed, 3};
    std::vector<double> x(2 * count);
    for (double& v : x)
        v = values[rng.next_u32() % 6];
    return x;
}

/// The historical fused scan (the byte reference of every scan): the
/// unclamped variance too, so a test can see the clamp fire.
struct Reference_scan {
    std::vector<double> mean;
    std::vector<double> raw_variance;

    Reference_scan(const std::vector<double>& x, std::size_t window)
    {
        const std::size_t count = x.size() / 2;
        const auto e = [&](std::size_t i) {
            return x[2 * i] * x[2 * i] + x[2 * i + 1] * x[2 * i + 1];
        };
        const auto w = static_cast<double>(window);
        const bool exact = (window & (window - 1)) == 0;
        double sum = 0.0;
        double sum_sq = 0.0;
        for (std::size_t i = 0; i < window; ++i) {
            sum += e(i);
            sum_sq += e(i) * e(i);
        }
        for (std::size_t k = 0;; ++k) {
            const double m = exact ? sum * (1.0 / w) : sum / w;
            mean.push_back(m);
            raw_variance.push_back((exact ? sum_sq * (1.0 / w) : sum_sq / w) - m * m);
            if (k + window >= count)
                break;
            sum += e(k + window) - e(k);
            sum_sq += e(k + window) * e(k + window) - e(k) * e(k);
        }
    }

    double variance(std::size_t k) const
    {
        return raw_variance[k] < 0.0 ? 0.0 : raw_variance[k];
    }
};

double reference_ratio(double mean, double variance, double sigma2)
{
    const double signal_power = std::max(mean - sigma2, 1e-12);
    return variance / (2.0 * signal_power * sigma2 + sigma2 * sigma2);
}

bool mask_bit(const std::vector<std::uint64_t>& mask, std::size_t k)
{
    return ((mask[k / 64] >> (k % 64)) & 1) != 0;
}

/// The three detector scans of `lanes` against the scalar references,
/// resumed from the same carried sums at window `first` (>= 1, a mask
/// word boundary for the masks) over n windows (whole mask words).
void expect_scans_equal_scalar(const detail::Lane_kernels& lanes,
                               const std::vector<double>& x, std::size_t window,
                               std::size_t first, std::size_t n)
{
    const double* samples = x.data();
    const std::size_t windows = first + n;
    const double sigma2 = 0.04;
    const double threshold = 1.5;

    // The carried sums at `first`, from the scalar scan of the windows
    // before it.
    std::vector<double> lead_mean(first), lead_variance(first);
    double carry[2] = {0.0, 0.0};
    detail::window_stats_scalar(samples, 0, first, window, carry, lead_mean.data(),
                                lead_variance.data());

    std::vector<double> m1(windows), m2(windows), v1(windows), v2(windows);
    double c1[2] = {carry[0], carry[1]};
    double c2[2] = {carry[0], carry[1]};
    lanes.window_stats(samples, first, n, window, c1, m1.data(), v1.data());
    detail::window_stats_scalar(samples, first, n, window, c2, m2.data(), v2.data());
    for (std::size_t k = first; k < windows; ++k) {
        expect_same_bits(m1[k], m2[k], "window_stats mean", k);
        expect_same_bits(v1[k], v2[k], "window_stats variance", k);
    }
    expect_same_bits(c1[0], c2[0], "stats carry sum", 0);
    expect_same_bits(c1[1], c2[1], "stats carry sum_sq", 0);

    const std::size_t words = windows / 64;
    std::vector<std::uint64_t> a1(words, 7), a2(words, 7), r1(words, 7), r2(words, 7);
    double ca1 = carry[0];
    double ca2 = carry[0];
    lanes.mean_above_mask(samples, first, n, window, &ca1, threshold, a1.data());
    detail::mean_above_mask_scalar(samples, first, n, window, &ca2, threshold,
                                   a2.data());
    double cr1[2] = {carry[0], carry[1]};
    double cr2[2] = {carry[0], carry[1]};
    double peak1 = 1e-12;
    double peak2 = 1e-12;
    lanes.excess_ratio_mask(samples, first, n, window, cr1, sigma2, threshold,
                            r1.data(), &peak1);
    detail::excess_ratio_mask_scalar(samples, first, n, window, cr2, sigma2, threshold,
                                     r2.data(), &peak2);
    for (std::size_t w = first / 64; w < words; ++w) {
        EXPECT_EQ(a1[w], a2[w]) << "mean_above_mask word " << w;
        EXPECT_EQ(r1[w], r2[w]) << "excess_ratio_mask word " << w;
    }
    expect_same_bits(peak1, peak2, "excess_ratio_mask peak", 0);
    expect_same_bits(ca1, ca2, "mean mask carry", 0);
    expect_same_bits(cr1[1], cr2[1], "ratio carry sum_sq", 0);
}

/// The MSK decisions of `lanes` against the scalar reference, on samples
/// whose ratio parts hit every signed-zero case.
void expect_msk_decide_equal_scalar(const detail::Lane_kernels& lanes,
                                    const std::vector<double>& x)
{
    const std::size_t transitions = (x.size() / 2 - 1) & ~std::size_t{63};
    std::vector<std::uint64_t> w1(transitions / 64), w2(transitions / 64);
    lanes.msk_decide(x.data(), transitions, w1.data());
    detail::msk_decide_scalar(x.data(), transitions, w2.data());
    for (std::size_t w = 0; w < w1.size(); ++w)
        EXPECT_EQ(w1[w], w2[w]) << "msk_decide word " << w;
}

/// The front-end kernels of `lanes` at power-of-two and divide-path
/// windows, from window 1 (the first the lanes ever take) and from a
/// mask-word boundary.
void expect_front_end_lanes_equal_scalar(const detail::Lane_kernels& lanes,
                                         std::uint64_t seed)
{
    const std::vector<double> x = front_end_samples(1200, seed);
    for (const std::size_t window : {std::size_t{1}, std::size_t{7}, std::size_t{16},
                                     std::size_t{64}, std::size_t{100}}) {
        expect_scans_equal_scalar(lanes, x, window, 64, 512);
        expect_scans_equal_scalar(lanes, x, window, 128, 896);
    }
    // window_stats from window 1 (no mask alignment).
    std::vector<double> m1(1000), m2(1000), v1(1000), v2(1000);
    double carry[2] = {0.0, 0.0};
    detail::window_stats_scalar(x.data(), 0, 1, 16, carry, m2.data(), v2.data());
    double c1[2] = {carry[0], carry[1]};
    double c2[2] = {carry[0], carry[1]};
    lanes.window_stats(x.data(), 1, 504, 16, c1, m1.data(), v1.data());
    detail::window_stats_scalar(x.data(), 1, 504, 16, c2, m2.data(), v2.data());
    for (std::size_t k = 1; k < 505; ++k) {
        expect_same_bits(m1[k], m2[k], "window_stats from 1 mean", k);
        expect_same_bits(v1[k], v2[k], "window_stats from 1 variance", k);
    }
    expect_msk_decide_equal_scalar(lanes, x);
    expect_msk_decide_equal_scalar(lanes, signed_zero_samples(1030, seed));
}

/// atan2, sincos, log, polar, the two channel accumulates, the
/// Counter_normal pair, the pilot scans and the receiver front end of
/// `lanes` against their scalar references.
void expect_lanes_equal_scalar(const detail::Lane_kernels& lanes, std::uint64_t seed)
{
    const std::size_t n = 4096; // a multiple of 16: pure lane coverage
    const std::vector<double> y = random_range(n, -20.0, 20.0, seed + 1);
    const std::vector<double> x = random_range(n, -20.0, 20.0, seed + 2);
    const std::vector<double> angles = random_range(n, -2000.0, 2000.0, seed + 3);
    const std::vector<double> uniforms = random_range(n, 1e-12, 2.0, seed + 4);

    std::vector<double> a1(n), a2(n);
    lanes.atan2(y.data(), x.data(), a1.data(), n);
    detail::atan2_batch_scalar(y.data(), x.data(), a2.data(), n);
    std::vector<double> s1(n), c1(n), s2(n), c2(n);
    lanes.sincos(angles.data(), s1.data(), c1.data(), n);
    detail::sincos_batch_scalar(angles.data(), s2.data(), c2.data(), n);
    std::vector<double> l1(n), l2(n);
    lanes.log(uniforms.data(), l1.data(), n);
    detail::log_batch_scalar(uniforms.data(), l2.data(), n);
    std::vector<double> p1(2 * n), p2(2 * n);
    lanes.polar(angles.data(), 0.83, p1.data(), n);
    detail::polar_batch_scalar(angles.data(), 0.83, p2.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        expect_same_bits(a1[i], a2[i], "atan2 lanes-vs-scalar", i);
        expect_same_bits(s1[i], s2[i], "sin lanes-vs-scalar", i);
        expect_same_bits(c1[i], c2[i], "cos lanes-vs-scalar", i);
        expect_same_bits(l1[i], l2[i], "log lanes-vs-scalar", i);
        expect_same_bits(p1[2 * i], p2[2 * i], "polar-re lanes-vs-scalar", i);
        expect_same_bits(p1[2 * i + 1], p2[2 * i + 1], "polar-im lanes-vs-scalar", i);
    }

    // Channel accumulates: x/y as the interleaved signal, the angles'
    // polar fill as the per-sample rotor stream.
    const std::size_t samples = n / 2;
    std::vector<double> r1(2 * samples, 0.5), r2(2 * samples, 0.5);
    lanes.rotor_accumulate(y.data(), r1.data(), samples, 0.6, -0.7);
    detail::rotor_accumulate_scalar(y.data(), r2.data(), samples, 0.6, -0.7);
    std::vector<double> m1(2 * samples, 0.25), m2(2 * samples, 0.25);
    lanes.cmul_accumulate(x.data(), p2.data(), m1.data(), samples);
    detail::cmul_accumulate_scalar(x.data(), p2.data(), m2.data(), samples);
    for (std::size_t i = 0; i < 2 * samples; ++i) {
        expect_same_bits(r1[i], r2[i], "rotor accumulate lanes-vs-scalar", i);
        expect_same_bits(m1[i], m2[i], "cmul accumulate lanes-vs-scalar", i);
    }

    // The fast MSK modulator: random words, and initial samples with
    // signed zeros (a sign flip of ±0 must match the scalar table).
    {
        Pcg32 bit_rng{seed, 7};
        std::vector<std::uint64_t> bit_words(40);
        for (std::uint64_t& w : bit_words)
            w = bit_rng.next_u64();
        const std::size_t count = 64 * bit_words.size();
        for (const auto& [re, im] : {std::pair{0.83, -0.31}, std::pair{0.0, 1.0},
                                     std::pair{-0.0, -1.0}, std::pair{-0.6, 0.0}}) {
            std::vector<double> q1(2 * count, 9.0), q2(2 * count, 7.0);
            lanes.msk_modulate(bit_words.data(), count, re, im, q1.data());
            detail::msk_modulate_scalar(bit_words.data(), 0, count, re, im, q2.data());
            for (std::size_t i = 0; i < 2 * count; ++i)
                expect_same_bits(q1[i], q2[i], "msk_modulate lanes-vs-scalar", i);
        }
    }

    const Counter_normal gen{seed, 5};
    std::vector<double> z1(n), z2(n);
    lanes.counter_normal_fill(gen.key_a(), gen.key_b(), 41, z1.data(), n);
    gen.fill(41, z2.data(), n);
    std::vector<double> acc1(n, 0.25), acc2(n, 0.25);
    lanes.counter_normal_add_scaled(gen.key_a(), gen.key_b(), 41, 0.7, acc1.data(), n);
    gen.add_scaled(41, 0.7, acc2.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        expect_same_bits(z1[i], z2[i], "counter-normal fill lanes-vs-scalar", i);
        expect_same_bits(acc1[i], acc2[i], "counter-normal add_scaled lanes-vs-scalar",
                         i);
    }

    // Pilot scans: the integer min-key reductions against plain
    // popcount loops over random words and a random 2-word pattern table.
    Pcg32 rng{seed, 6};
    std::vector<std::uint64_t> words(40), shifted(128), masks(128);
    for (std::uint64_t& w : words)
        w = rng.next_u64();
    for (std::size_t k = 0; k < 128; ++k) {
        shifted[k] = rng.next_u64();
        masks[k] = rng.next_u64() | rng.next_u64();
    }
    const std::size_t max_errors = 40;
    const auto key_at = [&](std::size_t start) {
        const std::uint64_t* hay = words.data() + (start >> 6);
        const std::size_t row = 2 * (start & 63);
        const auto errors = static_cast<std::uint64_t>(
            std::popcount((hay[0] ^ shifted[row]) & masks[row])
            + std::popcount((hay[1] ^ shifted[row + 1]) & masks[row + 1]));
        return errors <= max_errors ? (errors << 48) | start : ~std::uint64_t{0};
    };
    std::uint64_t expected = ~std::uint64_t{0};
    for (std::size_t start = 64 * 3; start <= 64 * 30 + 63; ++start)
        expected = std::min(expected, key_at(start));
    ASSERT_NE(expected, ~std::uint64_t{0}) << "no start within max_errors";
    std::uint64_t striped = ~std::uint64_t{0};
    lanes.pilot_scan_striped(words.data(), shifted.data(), masks.data(), 3, 30,
                             max_errors, &striped);
    EXPECT_EQ(striped, expected);
    // The position-major scan stops at a zero-error start; random words
    // never produce one, so it sees the whole range too.
    std::uint64_t starts = ~std::uint64_t{0};
    lanes.pilot_scan_starts(words.data(), shifted.data(), masks.data(), 2, 64 * 3,
                            64 * 30 + 63, max_errors, &starts);
    EXPECT_EQ(starts, expected);

    expect_front_end_lanes_equal_scalar(lanes, seed + 7);
}

/// The interference decoder's three kernels of `lanes` against their
/// scalar references.
void expect_decoder_lanes_equal_scalar(const detail::Lane_kernels& lanes,
                                       std::uint64_t seed)
{
    const std::size_t count = 512;
    const std::vector<double> samples = random_range(2 * count, -3.0, 3.0, seed + 1);
    const double a = 0.95;
    const double b = 0.88;

    std::vector<double> tp1(count), tm1(count), pm1(count), pp1(count);
    std::vector<double> tp2(count), tm2(count), pm2(count), pp2(count);
    lanes.anc_candidates(samples.data(), count, a, b, tp1.data(), tm1.data(),
                         pm1.data(), pp1.data());
    detail::anc_candidates_batch_scalar(samples.data(), count, a, b, tp2.data(),
                                        tm2.data(), pm2.data(), pp2.data());
    for (std::size_t i = 0; i < count; ++i) {
        expect_same_bits(tp1[i], tp2[i], "theta+", i);
        expect_same_bits(tm1[i], tm2[i], "theta-", i);
        expect_same_bits(pm1[i], pm2[i], "phi-", i);
        expect_same_bits(pp1[i], pp2[i], "phi+", i);
    }

    const std::size_t transitions = count - 16; // whole blocks at both widths
    std::vector<double> known(transitions);
    Pcg32 rng{seed + 2, 3};
    for (double& k : known)
        k = rng.next_bernoulli(0.5) ? 1.5707963267948966 : -1.5707963267948966;
    std::vector<double> f1(transitions), e1(transitions);
    std::vector<double> f2(transitions), e2(transitions);
    lanes.anc_select(tp1.data(), tm1.data(), pm1.data(), pp1.data(), known.data(),
                     transitions, f1.data(), e1.data());
    detail::anc_select_batch_scalar(tp2.data(), tm2.data(), pm2.data(), pp2.data(),
                                    known.data(), transitions, f2.data(),
                                    e2.data());
    std::vector<double> d1(transitions), d2(transitions);
    lanes.diff_arg(samples.data(), transitions, d1.data());
    detail::diff_arg_batch_scalar(samples.data(), transitions, d2.data());
    for (std::size_t i = 0; i < transitions; ++i) {
        expect_same_bits(f1[i], f2[i], "selected phi", i);
        expect_same_bits(e1[i], e2[i], "selected error", i);
        expect_same_bits(d1[i], d2[i], "diff arg", i);
    }
}

TEST(SimdKernels, Avx2LanesEqualScalarKernels)
{
    if (!avx2_available())
        GTEST_SKIP() << "CPU lacks AVX2+FMA; backend is scalar-only here";
    const detail::Lane_kernels* lanes = detail::lane_kernels(Backend::avx2);
    ASSERT_NE(lanes, nullptr);
    EXPECT_EQ(lanes->width, 4u);
    expect_lanes_equal_scalar(*lanes, 0xE0);
}

TEST(SimdKernels, Avx2DecoderKernelsEqualScalar)
{
    if (!avx2_available())
        GTEST_SKIP() << "CPU lacks AVX2+FMA; backend is scalar-only here";
    const detail::Lane_kernels* lanes = detail::lane_kernels(Backend::avx2);
    ASSERT_NE(lanes, nullptr);
    expect_decoder_lanes_equal_scalar(*lanes, 0xF0);
}

TEST(SimdKernels, Avx512LanesEqualScalarKernels)
{
    if (!avx512_available())
        GTEST_SKIP() << "CPU lacks AVX-512F; widest backend here is avx2";
    const detail::Lane_kernels* lanes = detail::lane_kernels(Backend::avx512);
    ASSERT_NE(lanes, nullptr);
    EXPECT_EQ(lanes->width, 8u);
    expect_lanes_equal_scalar(*lanes, 0x510);
}

TEST(SimdKernels, Avx512DecoderKernelsEqualScalar)
{
    if (!avx512_available())
        GTEST_SKIP() << "CPU lacks AVX-512F; widest backend here is avx2";
    const detail::Lane_kernels* lanes = detail::lane_kernels(Backend::avx512);
    ASSERT_NE(lanes, nullptr);
    expect_decoder_lanes_equal_scalar(*lanes, 0x520);
}

TEST(SimdKernels, Avx512CounterNormalEqualsAvx2)
{
    if (!avx512_available())
        GTEST_SKIP() << "CPU lacks AVX-512F; widest backend here is avx2";
    // The two lane widths must emit the identical z stream for identical
    // (key, counter) words.  Keys are passed directly so this holds for
    // arbitrary key material, not just Counter_normal-derived keys (the
    // public fill_simd path is covered by tests/util/counter_normal_*).
    const detail::Lane_kernels& wide = *detail::lane_kernels(Backend::avx512);
    const detail::Lane_kernels& narrow = *detail::lane_kernels(Backend::avx2);
    const std::uint64_t key_a = 0x0123456789abcdefULL;
    const std::uint64_t key_b = 0xfedcba9876543210ULL;
    const std::size_t count = 256; // multiple of 16
    std::vector<double> z_wide(count), z_narrow(count);
    wide.counter_normal_fill(key_a, key_b, 41, z_wide.data(), count);
    narrow.counter_normal_fill(key_a, key_b, 41, z_narrow.data(), count);
    for (std::size_t i = 0; i < count; ++i)
        expect_same_bits(z_wide[i], z_narrow[i], "counter-normal fill avx512", i);

    std::vector<double> acc_wide(count, 0.25), acc_narrow(count, 0.25);
    wide.counter_normal_add_scaled(key_a, key_b, 41, 0.7, acc_wide.data(), count);
    narrow.counter_normal_add_scaled(key_a, key_b, 41, 0.7, acc_narrow.data(), count);
    for (std::size_t i = 0; i < count; ++i)
        expect_same_bits(acc_wide[i], acc_narrow[i],
                         "counter-normal add_scaled avx512", i);
}

TEST(SimdKernels, FrontEndScansMatchHistoricalLoopAtEverySeam)
{
    // The public scans on whatever backend this process dispatches to,
    // against the historical fused loop: window counts on both sides of
    // the lane-width and mask-word seams, power-of-two and divide-path
    // windows, and a stretch whose variance cancels below zero.
    const double sigma2 = 0.04;
    const double threshold = 1.5;
    bool clamp_fired = false;
    for (const std::size_t count : {std::size_t{5}, std::size_t{20}, std::size_t{64},
                                    std::size_t{71}, std::size_t{130},
                                    std::size_t{700}}) {
        const std::vector<double> x = front_end_samples(count, 0x5C + count);
        for (const std::size_t window : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                         std::size_t{16}, std::size_t{64}}) {
            if (window > count) {
                // Shorter than the window: no scan at all.
                dsp::Signal signal;
                for (std::size_t i = 0; i < count; ++i)
                    signal.emplace_back(x[2 * i], x[2 * i + 1]);
                EXPECT_TRUE(dsp::scan_energy(signal, window).window_mean.empty());
                continue;
            }
            const std::size_t windows = count - window + 1;
            const Reference_scan ref{x, window};
            ASSERT_EQ(ref.mean.size(), windows);
            std::vector<double> mean(windows), variance(windows);
            simd::window_stats(x.data(), windows, window, mean.data(), variance.data());
            std::vector<std::uint64_t> above((windows + 63) / 64, ~std::uint64_t{0});
            std::vector<std::uint64_t> ratio_above(above);
            simd::mean_above_mask(x.data(), windows, window, threshold, above.data());
            double peak = 1e-12;
            simd::excess_ratio_mask(x.data(), windows, window, sigma2, threshold,
                                    ratio_above.data(), &peak);
            double expected_peak = 1e-12;
            for (std::size_t k = 0; k < windows; ++k) {
                clamp_fired = clamp_fired || ref.raw_variance[k] < 0.0;
                expect_same_bits(mean[k], ref.mean[k], "scan mean", k);
                expect_same_bits(variance[k], ref.variance(k), "scan variance", k);
                EXPECT_EQ(mask_bit(above, k), ref.mean[k] > threshold) << k;
                const double ratio = reference_ratio(ref.mean[k], ref.variance(k), sigma2);
                expected_peak = std::max(expected_peak, ratio);
                EXPECT_EQ(mask_bit(ratio_above, k), ratio > threshold) << k;
            }
            expect_same_bits(peak, expected_peak, "scan peak ratio", windows);
            for (std::size_t k = windows; k < 64 * above.size(); ++k) {
                EXPECT_FALSE(mask_bit(above, k)) << "padding bit " << k;
                EXPECT_FALSE(mask_bit(ratio_above, k)) << "padding bit " << k;
            }
        }
    }
    EXPECT_TRUE(clamp_fired) << "no window's variance cancelled below zero";
}

TEST(SimdKernels, MskDecideFollowsTheArgRuleOnSignedZeros)
{
    // Every mix of signed zeros and signs in a transition's ratio parts,
    // at lengths on both sides of the lane seam, against the arg rule
    // itself: bit = atan2(im, re) >= 0 (atan2 gives -0 for (-0, +0) and
    // -pi for (-0, -0) or (-0, x < 0)).
    const std::vector<double> x = signed_zero_samples(1030, 0xDEC);
    for (const std::size_t samples : {std::size_t{2}, std::size_t{5}, std::size_t{9},
                                      std::size_t{33}, std::size_t{1030}}) {
        const std::size_t transitions = samples - 1;
        std::vector<std::uint64_t> words((transitions + 63) / 64, ~std::uint64_t{0});
        simd::msk_decide(x.data(), transitions, words.data());
        if (transitions % 64 != 0) {
            EXPECT_EQ(words.back() >> (transitions % 64), 0u) << "bits past the end";
        }
        for (std::size_t n = 0; n < transitions; ++n) {
            const unsigned bit = (words[n / 64] >> (n % 64)) & 1u;
            const double ar = x[2 * n];
            const double ai = x[2 * n + 1];
            const double br = x[2 * n + 2];
            const double bi = x[2 * n + 3];
            const double im = br * -ai + bi * ar;
            const double re = br * ar - bi * -ai;
            EXPECT_EQ(bit, std::atan2(im, re) >= 0.0 ? 1u : 0u)
                << "transition " << n << ": im " << im << ", re " << re;
        }
    }
}

TEST(SimdKernels, LaneKernelsStayWithinFastErrorBounds)
{
    // Belt and braces on top of bit-equality: the lane kernels inherit
    // the scalar fast kernels' measured error bounds against libm
    // (tests/util/fastmath_test.cpp).  A 10x slack keeps this from
    // duplicating that test's tight calibration while still catching a
    // wrong-polynomial regression immediately.
    const std::size_t n = 20000;
    const std::vector<double> y = random_range(n, -5.0, 5.0, 0x91);
    const std::vector<double> x = random_range(n, -5.0, 5.0, 0x92);
    std::vector<double> out(n);
    atan2_batch(y.data(), x.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_NEAR(out[i], std::atan2(y[i], x[i]), 1e-10);

    const std::vector<double> angles = random_range(n, -100.0, 100.0, 0x93);
    std::vector<double> s(n);
    std::vector<double> c(n);
    sincos_batch(angles.data(), s.data(), c.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(s[i], std::sin(angles[i]), 1e-12);
        ASSERT_NEAR(c[i], std::cos(angles[i]), 1e-12);
    }
}

} // namespace
} // namespace anc::simd

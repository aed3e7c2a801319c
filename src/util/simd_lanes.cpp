// The lane kernels behind anc::simd (see util/simd.h), written once and
// compiled twice: with -mavx2 -mfma a lane vector holds 4 doubles, with
// -mavx512f it holds 8.  The width follows from the ISA macros of the
// compilation, so the build flags are the only difference between the
// two objects (CMakeLists.txt builds them as anc_lanes_avx2 and
// anc_lanes_avx512).
//
// The lanes are GCC vector extensions: arithmetic, comparisons and the
// `mask ? a : b` select are the ordinary C++ operators on vector types,
// so most kernels below read as the scalar code they transcribe.  The
// few operations with no operator spelling — square root, vminpd /
// vmaxpd, lane shuffles, the exact integer -> double conversions, the
// even-lane add/sub — sit behind the helpers in the first section.
//
// One-TU-per-ISA rule: these objects are the only code built above the
// baseline ISA, and nothing in them is reachable except through the
// runtime CPUID dispatch in simd.cpp.  Everything defined here therefore
// has internal linkage (the anonymous namespace) except the one kernel
// table per object.  A weak or vague-linkage symbol — an inline
// function from a shared header, a template instantiation — would let
// the linker pick this object's AVX copy for callers on baseline
// machines.  The only library header included is util/simd.h, whose one
// inline function is never used here, and the integration.kernel_symbols
// ctest fails the build tree if either object defines a weak symbol.
//
// Bit-compatibility discipline (the contract util/simd.h documents):
// every lane computes exactly the arithmetic of its scalar counterpart
// in util/fastmath.h / util/rng.h / simd.cpp — same operations, same
// order, same operand order in every select — and the objects are
// compiled with -ffp-contract=off, so no mul/add pair is fused into an
// FMA.

#include "util/simd.h"

#include <cstddef>
#include <cstdint>

#include <immintrin.h>

#if defined(__AVX512F__)
#define ANC_LANE_TABLE avx512_kernels
#elif defined(__AVX2__) && defined(__FMA__)
#define ANC_LANE_TABLE avx2_kernels
#else
#error "simd_lanes.cpp is built only with -mavx2 -mfma or with -mavx512f"
#endif

namespace anc::simd::detail {

namespace {

// ------------------------------------------------------------ lane types

#if defined(__AVX512F__)
constexpr std::size_t lanes = 8;
#else
constexpr std::size_t lanes = 4;
#endif

typedef double vd __attribute__((vector_size(lanes * sizeof(double))));
typedef std::int64_t vi __attribute__((vector_size(lanes * sizeof(double))));
typedef std::uint64_t vu __attribute__((vector_size(lanes * sizeof(double))));
typedef std::int32_t vi32 __attribute__((vector_size(lanes * sizeof(std::int32_t))));

// --------------------------------------------------------------- helpers

inline vd load(const double* p)
{
    vd v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

inline void store(double* p, vd v)
{
    __builtin_memcpy(p, &v, sizeof v);
}

inline vd splat(double x)
{
    return __builtin_shuffle(vd{x}, vi{});
}

inline vu bits(vd v)
{
    return (vu)v;
}

inline vd from_bits(vu v)
{
    return (vd)v;
}

/// {0, 1, ..., lanes - 1}: the seed of every lane-index pattern below.
inline vi lane_index()
{
#if defined(__AVX512F__)
    return vi{0, 1, 2, 3, 4, 5, 6, 7};
#else
    return vi{0, 1, 2, 3};
#endif
}

/// Lane i of the result is lane idx[i] of the concatenation a:b.
inline vd shuffle(vd a, vd b, vi idx)
{
    return __builtin_shuffle(a, b, idx);
}

// The AVX-512 arms use the zero-masking forms with an all-lanes mask:
// GCC's unmasked AVX-512 intrinsics merge into _mm512_undefined_pd(), a
// -Wmaybe-uninitialized false positive under -Wall.

inline vd sqrt_lanes(vd v)
{
#if defined(__AVX512F__)
    return _mm512_maskz_sqrt_pd(0xff, v);
#else
    return _mm256_sqrt_pd(v);
#endif
}

/// a < b ? a : b, lane by lane — exactly vminpd, NaN and equal-operand
/// cases included (GCC would lower the ternary to a compare and a
/// blend, twice the uops).
inline vd min_lanes(vd a, vd b)
{
#if defined(__AVX512F__)
    return _mm512_maskz_min_pd(0xff, a, b);
#else
    return _mm256_min_pd(a, b);
#endif
}

/// a > b ? a : b, lane by lane — exactly vmaxpd.
inline vd max_lanes(vd a, vd b)
{
#if defined(__AVX512F__)
    return _mm512_maskz_max_pd(0xff, a, b);
#else
    return _mm256_max_pd(a, b);
#endif
}

/// a − b on even lanes, a + b on odd lanes — vaddsubpd, which AVX-512F
/// lacks.  Flipping the sign bit of b's even lanes is exact negation and
/// a − b ≡ a + (−b) bitwise, so one add finishes both halves.
inline vd addsub(vd a, vd b)
{
    const vu even = (vu)((lane_index() & 1) == 0);
    return a + from_bits(bits(b) ^ (even & 0x8000000000000000ULL));
}

inline vd abs_lanes(vd v)
{
    return from_bits(bits(v) & 0x7fffffffffffffffULL);
}

/// std::copysign(magnitude, sign_source).
inline vd copysign_lanes(vd magnitude, vd sign_source)
{
    return from_bits((bits(magnitude) & 0x7fffffffffffffffULL)
                     | (bits(sign_source) & 0x8000000000000000ULL));
}

/// Exact int64 -> double for |v| < 2^51 (the 1.5·2^52 magic constant;
/// AVX2 and AVX-512F have no 64-bit integer convert).
inline vd i51_to_double(vi v)
{
    return from_bits((vu)(v + 0x4338000000000000LL)) - 6755399441055744.0;
}

/// Exact uint64 -> double for v ≤ 2^53: both 32-bit halves convert
/// exactly through the 2^52 magic constant and their sum is
/// representable, so the final add rounds nothing.
inline vd u53_to_double(vu v)
{
    const vd lo = from_bits((v & 0xffffffffULL) | 0x4330000000000000ULL)
                  - 4503599627370496.0;
    const vd hi = from_bits((v >> 32) | 0x4330000000000000ULL) - 4503599627370496.0;
    return hi * 4294967296.0 + lo;
}

/// Lanes of an integral double with |x| < 2^31, as int64.
inline vi integral_to_i64(vd x)
{
    return __builtin_convertvector(__builtin_convertvector(x, vi32), vi);
}

/// Interleave two SoA vectors into AoS pairs: first = [a0,b0,a1,b1,...]
/// over the low half of the lanes, second over the high half.
inline void interleave(vd a, vd b, vd& first, vd& second)
{
#if defined(__AVX512F__)
    const vi idx = (lane_index() >> 1) + (lane_index() & 1) * lanes;
    first = shuffle(a, b, idx);
    second = shuffle(a, b, idx + lanes / 2);
#else
    // In-lane unpacks, then one cross-lane permute per output: four
    // shuffles, where GCC's lowering of the generic index form takes six.
    const vd lo = _mm256_unpacklo_pd(a, b); // [a0,b0 | a2,b2]
    const vd hi = _mm256_unpackhi_pd(a, b); // [a1,b1 | a3,b3]
    first = _mm256_permute2f128_pd(lo, hi, 0x20);
    second = _mm256_permute2f128_pd(lo, hi, 0x31);
#endif
}

/// Split `lanes` interleaved complex samples at `p` into re/im vectors.
inline void deinterleave(const double* p, vd& re, vd& im)
{
    const vd v0 = load(p);
    const vd v1 = load(p + lanes);
    re = shuffle(v0, v1, lane_index() * 2);
    im = shuffle(v0, v1, lane_index() * 2 + 1);
}

/// Bit i of the result is set where lane i of the comparison mask m is
/// (vcmppd's all-ones lanes): vmovmskpd at AVX2, a test into a k
/// register at AVX-512F (which has no 64-bit movemask of its own).
inline unsigned movemask(vi m)
{
#if defined(__AVX512F__)
    return _mm512_test_epi64_mask((__m512i)m, (__m512i)m);
#else
    return static_cast<unsigned>(_mm256_movemask_pd((__m256d)m));
#endif
}

// ----------------------------------------------------------- math lanes

/// fast_atan2 (util/fastmath.h): octant fold, degree-12 Chebyshev in
/// Estrin form, quadrant assembly.
inline vd atan2_lanes(vd y, vd x)
{
    constexpr double half_pi = 1.57079632679489661923;
    constexpr double pi = 3.14159265358979323846;
    const vd ax = abs_lanes(x);
    const vd ay = abs_lanes(y);
    const vd num = min_lanes(ax, ay); // ax < ay ? ax : ay
    const vd den = max_lanes(ay, ax); // ax < ay ? ay : ax
    const vd z = den == 0.0 ? splat(0.0) : num / den;
    const vd t = z * z;
    const vd t2 = t * t;
    const vd t4 = t2 * t2;
    const vd t8 = t4 * t4;
    const vd b0 = 9.99999999988738120e-01 + -3.33333329516572185e-01 * t;
    const vd b1 = 1.99999783362170863e-01 + -1.42852256081602597e-01 * t;
    const vd b2 = 1.11053067324246468e-01 + -9.04917909372005280e-02 * t;
    const vd b3 = 7.49526237809320373e-02 + -6.02219638791359271e-02 * t;
    const vd b4 = 4.36465894423390538e-02 + -2.60059959770320183e-02 * t;
    const vd b5 = 1.14276332769563185e-02 + -3.19542524056683729e-03 * t;
    const vd d0 = b0 + b1 * t2;
    const vd d1 = b2 + b3 * t2;
    const vd d2 = b4 + b5 * t2;
    const vd acc = (d0 + d1 * t4) + (d2 + 4.19227860083381837e-04 * t4) * t8;
    vd angle = z * acc;
    angle = ax < ay ? half_pi - angle : angle;
    angle = (vi)x < 0 ? pi - angle : angle; // std::signbit(x), -0.0 too
    return copysign_lanes(angle, y);
}

/// fast_sincos: Cody–Waite reduction + the fdlibm kernels.  The quadrant
/// convert is exact: kd is integral and |kd| < 2^31 on the documented
/// |x| ≲ 1e6 domain.
inline void sincos_lanes(vd x, vd& sin_out, vd& cos_out)
{
    constexpr double two_over_pi = 0.63661977236758134308;
    constexpr double pio2_hi = 1.57079632679489661923;
    constexpr double pio2_lo = 6.12323399573676603587e-17;
    constexpr double magic = 6755399441055744.0; // fast_round: 1.5 * 2^52
    const vd kd = (x * two_over_pi + magic) - magic;
    const vd r = (x - kd * pio2_hi) - kd * pio2_lo;
    const vi q = integral_to_i64(kd) & 3;
    const vd z = r * r;
    const vd ss =
        r + r * z
                * (-1.66666666666666324348e-01
                   + z * (8.33333333332248946124e-03
                          + z * (-1.98412698298579493134e-04
                                 + z * (2.75573137070700676789e-06
                                        + z * (-2.50507602534068634195e-08
                                               + z * 1.58969099521155010221e-10)))));
    const vd cc =
        1.0 - 0.5 * z
        + z * z
              * (4.16666666666666019037e-02
                 + z * (-1.38888888888741095749e-03
                        + z * (2.48015872894767294178e-05
                               + z * (-2.75573143513906633035e-07
                                      + z * (2.08757232129817482790e-09
                                             + z * -1.13596475577881948265e-11)))));
    const vi odd = (q & 1) != 0;
    const vd s = odd ? cc : ss;
    const vd c = odd ? ss : cc;
    sin_out = (q & 2) != 0 ? -s : s;
    cos_out = ((q + 1) & 2) != 0 ? -c : c;
}

/// fast_log: exponent/mantissa split + the 8-term atanh(f) series.
inline vd log_lanes(vd x)
{
    constexpr double ln2_hi = 6.93147180369123816490e-01;
    constexpr double ln2_lo = 1.90821492927058770002e-10;
    const vu b = bits(x);
    const vd raw_m = from_bits((b & 0xfffffffffffffULL) | 0x3ff0000000000000ULL);
    const vi fold = raw_m > 1.41421356237309504880;
    const vd m = fold ? raw_m * 0.5 : raw_m;
    // e = raw_e + fold: fold is -1 where set, so subtract it.
    const vd ed = i51_to_double((vi)((b >> 52) & 0x7ff) - 1023 - fold);
    const vd f = (m - 1.0) / (m + 1.0);
    const vd w = f * f;
    const vd w2 = w * w;
    const vd w4 = w2 * w2;
    const vd p0 = 1.0 + w * (1.0 / 3.0);
    const vd p1 = 1.0 / 5.0 + w * (1.0 / 7.0);
    const vd p2 = 1.0 / 9.0 + w * (1.0 / 11.0);
    const vd p3 = 1.0 / 13.0 + w * (1.0 / 15.0);
    const vd poly = 2.0 * f * ((p0 + p1 * w2) + (p2 + p3 * w2) * w4);
    return ed * ln2_hi + (ed * ln2_lo + poly);
}

/// wrap_branchless (simd.cpp): angle + (angle <= -pi ? 2pi : 0)
/// - (angle > pi ? 2pi : 0).
inline vd wrap_lanes(vd angle)
{
    constexpr double pi = 3.141592653589793238462643383279502884;
    const vd two_pi = splat(2.0 * pi);
    const vd up = angle <= -pi ? two_pi : splat(0.0);
    const vd down = angle > pi ? two_pi : splat(0.0);
    return angle + up - down;
}

// ----------------------------------------------- Counter_normal lanes
// The noise-grade kernels of util/rng.h.

/// splitmix64.
inline vu splitmix64_lanes(vu x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// detail::noise_log: 5-term atanh series, integer-domain fold.
inline vd noise_log_lanes(vd x)
{
    constexpr double ln2_hi = 6.93147180369123816490e-01;
    constexpr double ln2_lo = 1.90821492927058770002e-10;
    const vu b = bits(x);
    const vd raw_m = from_bits((b & 0xfffffffffffffULL) | 0x3ff0000000000000ULL);
    const vu fold = (vu)(raw_m > 1.41421356237309504880) & 1;
    const vd m = from_bits(bits(raw_m) - (fold << 52));
    const vd ed = i51_to_double((vi)((b >> 52) & 0x7ff) - 1023 + (vi)fold);
    const vd f = (m - 1.0) / (m + 1.0);
    const vd w = f * f;
    const vd w2 = w * w;
    const vd poly = 2.0 * f
                    * ((1.0 + w * (1.0 / 3.0))
                       + (1.0 / 5.0 + w * (1.0 / 7.0) + w2 * (1.0 / 9.0)) * w2);
    return ed * ln2_hi + (ed * ln2_lo + poly);
}

/// detail::box_muller_radius: sqrt(-2 ln u1), u1 from the hash word.
inline vd box_muller_radius_lanes(vu w1)
{
    const vd u1 = u53_to_double((w1 >> 11) + 1) * 0x1.0p-53;
    return sqrt_lanes(-2.0 * noise_log_lanes(u1));
}

/// detail::box_muller_angle: exact integer quadrant reduction, the
/// 4-term kernels, bit-domain quadrant assembly.
inline void box_muller_angle_lanes(vu w2, vd& s, vd& c)
{
    const vu w = w2 >> 11;
    const vu k = (w + (1ULL << 50)) >> 51;
    const vi rem = (vi)w - (vi)(k << 51);
    const vd r = i51_to_double(rem) * (0x1.0p-51 * 1.57079632679489661923);
    const vd z = r * r;
    const vd ss =
        r + r * z
                * (-1.66666666666666324348e-01
                   + z * (8.33333333332248946124e-03
                          + z * (-1.98412698298579493134e-04
                                 + z * 2.75573137070700676789e-06)));
    const vd cc =
        1.0 - 0.5 * z
        + z * z
              * (4.16666666666666019037e-02
                 + z * (-1.38888888888741095749e-03
                        + z * (2.48015872894767294178e-05
                               + z * -2.75573143513906633035e-07)));
    const vu q = k & 3;
    const vu swap_mask = ~((q & 1) - 1);
    const vu sbits = bits(ss);
    const vu cbits = bits(cc);
    vu s_sel = (sbits & ~swap_mask) | (cbits & swap_mask);
    vu c_sel = (cbits & ~swap_mask) | (sbits & swap_mask);
    s_sel ^= (q & 2) << 62;
    c_sel ^= ((q + 1) & 2) << 62;
    s = from_bits(s_sel);
    c = from_bits(c_sel);
}

// Counter word increments (util/rng.h Counter_normal::pair).
constexpr std::uint64_t counter_inc_a = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t counter_inc_b = 0xc2b2ae3d27d4eb4fULL;

/// The counter words of `lanes` consecutive counters: key + c·inc is
/// linear in c mod 2^64, so lane i holds exactly the scalar word of
/// counter first + i.
inline vu counter_words(std::uint64_t key, std::uint64_t first, std::uint64_t inc)
{
    return (key + first * inc) + (vu)lane_index() * inc;
}

/// Counter_normal::pair over `lanes` consecutive counters, emitted as the
/// (z0, z1) pairs of 2·lanes consecutive normals.
inline void counter_normal_step(vu a_words, vu b_words, vd& first, vd& second)
{
    const vd radius = box_muller_radius_lanes(splitmix64_lanes(a_words));
    vd s;
    vd c;
    box_muller_angle_lanes(splitmix64_lanes(b_words), s, c);
    interleave(radius * c, radius * s, first, second);
}

// ------------------------------------------------------- batch kernels
// Block sizes: n % lanes == 0 for the element kernels, samples % lanes
// == 0 for the two channel accumulates, count % (2·lanes) == 0 for the
// Counter_normal pair; the dispatchers hand tails to the scalar code.

void atan2_batch(const double* y, const double* x, double* out, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += lanes)
        store(out + i, atan2_lanes(load(y + i), load(x + i)));
}

void sincos_batch(const double* angles, double* sin_out, double* cos_out,
                  std::size_t n)
{
    for (std::size_t i = 0; i < n; i += lanes) {
        vd s;
        vd c;
        sincos_lanes(load(angles + i), s, c);
        store(sin_out + i, s);
        store(cos_out + i, c);
    }
}

void log_batch(const double* x, double* out, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += lanes)
        store(out + i, log_lanes(load(x + i)));
}

void polar_batch(const double* angles, double magnitude, double* interleaved_out,
                 std::size_t n)
{
    for (std::size_t i = 0; i < n; i += lanes) {
        vd s;
        vd c;
        sincos_lanes(load(angles + i), s, c);
        vd first;
        vd second;
        interleave(magnitude * c, magnitude * s, first, second);
        store(interleaved_out + 2 * i, first);
        store(interleaved_out + 2 * i + lanes, second);
    }
}

void anc_candidates_batch(const double* interleaved_samples, std::size_t count,
                          double a, double b, double* theta_plus,
                          double* theta_minus, double* phi_minus, double* phi_plus)
{
    const double a2b2 = a * a + b * b;
    const double inv_2ab = 1.0 / (2.0 * a * b);
    for (std::size_t i = 0; i < count; i += lanes) {
        vd re;
        vd im;
        deinterleave(interleaved_samples + 2 * i, re, im);
        const vd norm = re * re + im * im;
        const vd d_raw = (norm - a2b2) * inv_2ab;
        // std::clamp(d_raw, -1.0, 1.0) is libstdc++'s
        // std::min(std::max(d_raw, -1.0), 1.0).  std::max(v, lo) is
        // (v < lo ? lo : v) = vmaxpd(lo, v) and std::min(v, hi) is
        // (hi < v ? hi : v) = vminpd(hi, v), exactly.
        const vd d = min_lanes(splat(1.0), max_lanes(splat(-1.0), d_raw));
        const vd root = sqrt_lanes(max_lanes(splat(0.0), 1.0 - d * d));
        const vd wy = atan2_lanes(im, re);
        const vd wt = atan2_lanes(b * root, a + b * d);
        const vd wp = atan2_lanes(a * root, b + a * d);
        store(theta_plus + i, wrap_lanes(wy + wt));
        store(theta_minus + i, wrap_lanes(wy - wt));
        store(phi_minus + i, wrap_lanes(wy - wp));
        store(phi_plus + i, wrap_lanes(wy + wp));
    }
}

void anc_select_batch(const double* theta_plus, const double* theta_minus,
                      const double* phi_minus, const double* phi_plus,
                      const double* known_diffs, std::size_t transitions,
                      double* phi_out, double* error_out)
{
    for (std::size_t n = 0; n < transitions; n += lanes) {
        const vd tp0 = load(theta_plus + n);
        const vd tp1 = load(theta_plus + n + 1);
        const vd tm0 = load(theta_minus + n);
        const vd tm1 = load(theta_minus + n + 1);
        const vd pm0 = load(phi_minus + n);
        const vd pm1 = load(phi_minus + n + 1);
        const vd pp0 = load(phi_plus + n);
        const vd pp1 = load(phi_plus + n + 1);
        const vd known = load(known_diffs + n);
        const auto error_of = [known](vd next, vd cur) {
            return abs_lanes(wrap_lanes(wrap_lanes(next - cur) - known));
        };
        const vd e00 = error_of(tp1, tp0);
        const vd e01 = error_of(tp1, tm0);
        const vd e10 = error_of(tm1, tp0);
        const vd e11 = error_of(tm1, tm0);
        const vd p00 = wrap_lanes(pm1 - pm0);
        const vd p01 = wrap_lanes(pm1 - pp0);
        const vd p10 = wrap_lanes(pp1 - pm0);
        const vd p11 = wrap_lanes(pp1 - pp0);
        const vi b01 = e01 < e00;
        const vd ea = b01 ? e01 : e00;
        const vd pa = b01 ? p01 : p00;
        const vi b11 = e11 < e10;
        const vd eb = b11 ? e11 : e10;
        const vd pb = b11 ? p11 : p10;
        const vi bb = eb < ea;
        store(phi_out + n, bb ? pb : pa);
        store(error_out + n, bb ? eb : ea);
    }
}

void diff_arg_batch(const double* interleaved_samples, std::size_t transitions,
                    double* out)
{
    for (std::size_t n = 0; n < transitions; n += lanes) {
        vd ar;
        vd ai;
        vd br;
        vd bi;
        deinterleave(interleaved_samples + 2 * n, ar, ai);
        deinterleave(interleaved_samples + 2 * n + 2, br, bi);
        store(out + n, atan2_lanes(br * -ai + bi * ar, br * ar - bi * -ai));
    }
}

void rotor_accumulate(const double* interleaved_in, double* interleaved_acc,
                      std::size_t samples, double rotor_re, double rotor_im)
{
    // Per complex sample: acc_re += re·rr − im·ri; acc_im += re·ri + im·rr.
    // Over (re, im, re, im, ...) lanes that is v·rr plus the pair-swapped
    // vector times (−ri, +ri, ...): a − b ≡ a + (−b) and im·(−ri) ≡
    // −(im·ri) exactly, and IEEE addition commutes, so every lane equals
    // the scalar loop bit for bit.
    const vi swap_pairs = lane_index() ^ 1;
    const vd ri_alt = (lane_index() & 1) == 0 ? splat(-rotor_im) : splat(rotor_im);
    for (std::size_t i = 0; i < 2 * samples; i += lanes) {
        const vd v = load(interleaved_in + i);
        const vd swapped = shuffle(v, v, swap_pairs);
        store(interleaved_acc + i,
              load(interleaved_acc + i) + (v * rotor_re + swapped * ri_alt));
    }
}

void cmul_accumulate(const double* interleaved_in, const double* interleaved_rotors,
                     double* interleaved_acc, std::size_t samples)
{
    // The same accumulate with a per-sample rotor: v·rr on every lane,
    // then subtract (even) / add (odd) the pair-swapped v·ri.
    const vi swap_pairs = lane_index() ^ 1;
    const vi re_of_pair = lane_index() & ~1;
    const vi im_of_pair = lane_index() | 1;
    for (std::size_t i = 0; i < 2 * samples; i += lanes) {
        const vd v = load(interleaved_in + i);
        const vd w = load(interleaved_rotors + i);
        const vd w_re = shuffle(w, w, re_of_pair);
        const vd w_im = shuffle(w, w, im_of_pair);
        const vd swapped = shuffle(v, v, swap_pairs);
        store(interleaved_acc + i,
              load(interleaved_acc + i) + addsub(v * w_re, swapped * w_im));
    }
}

void counter_normal_fill(std::uint64_t key_a, std::uint64_t key_b,
                         std::uint64_t first_counter, double* out,
                         std::size_t count)
{
    vu a_words = counter_words(key_a, first_counter, counter_inc_a);
    vu b_words = counter_words(key_b, first_counter, counter_inc_b);
    for (std::size_t i = 0; i < count; i += 2 * lanes) {
        vd first;
        vd second;
        counter_normal_step(a_words, b_words, first, second);
        store(out + i, first);
        store(out + i + lanes, second);
        a_words += lanes * counter_inc_a;
        b_words += lanes * counter_inc_b;
    }
}

void counter_normal_add_scaled(std::uint64_t key_a, std::uint64_t key_b,
                               std::uint64_t first_counter, double scale,
                               double* inout, std::size_t count)
{
    vu a_words = counter_words(key_a, first_counter, counter_inc_a);
    vu b_words = counter_words(key_b, first_counter, counter_inc_b);
    for (std::size_t i = 0; i < count; i += 2 * lanes) {
        vd first;
        vd second;
        counter_normal_step(a_words, b_words, first, second);
        // scalar: inout[i] += scale * z — multiply then add, no FMA.
        store(inout + i, load(inout + i) + scale * first);
        store(inout + i + lanes, load(inout + i + lanes) + scale * second);
        a_words += lanes * counter_inc_a;
        b_words += lanes * counter_inc_b;
    }
}

// ------------------------------------------------- receiver front end
// The detector scans (simd.cpp holds their scalar references and runs
// each scan's window 0) and the MSK decisions.

/// e = re·re + im·im of `lanes` interleaved samples at p (std::norm).
inline vd energies_at(const double* p)
{
    vd re;
    vd im;
    deinterleave(p, re, im);
    return re * re + im * im;
}

/// Calls `scan(scale)` with the window's scaling: ·(1/w) for a
/// power-of-two window (the scaling is then exact, so it rounds like the
/// divide; see simd.cpp's with_window_scale), / w otherwise — two loop
/// versions, so neither carries the other's arithmetic.
template <class Scan>
[[gnu::always_inline]] inline void with_window_scale(std::size_t window, Scan&& scan)
{
    const auto w = static_cast<double>(window);
    if ((window & (window - 1)) == 0) {
        const double inv_w = 1.0 / w;
        scan([inv_w](vd sums) { return sums * inv_w; });
    } else {
        scan([w](vd sums) { return sums / w; });
    }
}

// A scan runs three streams at once over groups of `lanes` windows: the
// lanes compute the deltas of group g + scan_ahead, the serial chain
// turns group g's deltas into window sums (scalar, in window order — the
// recurrence's rounding sequence is the byte contract), and the lanes
// finalize group g − scan_lag.  The streams meet in a small ring of
// slots.  The distances keep every reload clear of the store that fed
// it: a load the store buffer cannot forward (scalar loads from a vector
// store at an offset, a vector load of scalar stores) waits until the
// store reaches L1, and a chain load that waits stalls the chain.
constexpr std::size_t scan_ahead = 4 * lanes;
constexpr std::size_t scan_lag = 4 * lanes;
constexpr std::size_t scan_ring = 128; // > ahead + lag + a group; a power of two

/// Windows [first, first + n) (first >= 1, n % lanes == 0): deltas(g, slot),
/// chain(slot) and finish(g, slot) for the group of window first + g,
/// in the order described above.
template <class Deltas, class Chain, class Finish>
[[gnu::always_inline]] inline void scan_pipeline(std::size_t n, Deltas&& deltas,
                                                 Chain&& chain, Finish&& finish)
{
    const auto slot = [](std::size_t g) { return g & (scan_ring - 1); };
    for (std::size_t g = 0; g < n && g < scan_ahead; g += lanes)
        deltas(g, slot(g));
    for (std::size_t g = 0; g < n; g += lanes) {
        if (g + scan_ahead < n)
            deltas(g + scan_ahead, slot(g + scan_ahead));
        chain(slot(g));
        if (g >= scan_lag)
            finish(g - scan_lag, slot(g - scan_lag));
    }
    for (std::size_t g = n < scan_lag ? 0 : n - scan_lag; g < n; g += lanes)
        finish(g, slot(g));
}

/// The mean scan: sink(g, means) for each group g (relative to first).
template <class Sink>
[[gnu::always_inline]] inline void means_scan(const double* samples, std::size_t first,
                                              std::size_t n, std::size_t window,
                                              double* carry, Sink&& sink)
{
    const double* leaving = samples + 2 * (first - 1);
    const double* entering = leaving + 2 * window;
    alignas(64) double sums[scan_ring];
    double sum = *carry;
    with_window_scale(window, [&](auto scale) {
        scan_pipeline(
            n,
            [&](std::size_t g, std::size_t at) {
                store(sums + at,
                      energies_at(entering + 2 * g) - energies_at(leaving + 2 * g));
            },
            [&](std::size_t at) {
                for (std::size_t j = at; j < at + lanes; ++j) {
                    sum += sums[j];
                    sums[j] = sum;
                }
            },
            [&](std::size_t g, std::size_t at) { sink(g, scale(load(sums + at))); });
    });
    *carry = sum;
}

/// The stats scan: sink(g, means, variances) for each group g.
template <class Sink>
[[gnu::always_inline]] inline void stats_scan(const double* samples, std::size_t first,
                                              std::size_t n, std::size_t window,
                                              double* carry, Sink&& sink)
{
    const double* leaving = samples + 2 * (first - 1);
    const double* entering = leaving + 2 * window;
    alignas(64) double sums[scan_ring];
    alignas(64) double sum_sqs[scan_ring];
    double sum = carry[0];
    double sum_sq = carry[1];
    with_window_scale(window, [&](auto scale) {
        scan_pipeline(
            n,
            [&](std::size_t g, std::size_t at) {
                const vd in = energies_at(entering + 2 * g);
                const vd out = energies_at(leaving + 2 * g);
                store(sums + at, in - out);
                store(sum_sqs + at, in * in - out * out);
            },
            [&](std::size_t at) {
                for (std::size_t j = at; j < at + lanes; ++j) {
                    sum += sums[j];
                    sum_sq += sum_sqs[j];
                    sums[j] = sum;
                    sum_sqs[j] = sum_sq;
                }
            },
            [&](std::size_t g, std::size_t at) {
                const vd mean = scale(load(sums + at));
                const vd variance = scale(load(sum_sqs + at)) - mean * mean;
                // variance < 0.0 ? 0.0 : variance keeps a -0.0 (vmaxpd
                // would not).
                sink(g, mean, variance < 0.0 ? splat(0.0) : variance);
            });
    });
    carry[0] = sum;
    carry[1] = sum_sq;
}

/// Collects a mask scan's group bits into whole words: groups arrive in
/// order from a word boundary, 64 / lanes to a word.
struct Mask_words {
    std::uint64_t* words;
    std::uint64_t word = 0;

    void add(std::size_t g, std::uint64_t bits)
    {
        word |= bits << (g % 64);
        if (g % 64 == 64 - lanes) {
            words[g / 64] = word;
            word = 0;
        }
    }
};

void window_stats(const double* samples, std::size_t first, std::size_t n,
                  std::size_t window, double* carry, double* mean, double* variance)
{
    stats_scan(samples, first, n, window, carry, [&](std::size_t g, vd m, vd v) {
        store(mean + first + g, m);
        store(variance + first + g, v);
    });
}

void mean_above_mask(const double* samples, std::size_t first, std::size_t n,
                     std::size_t window, double* carry, double threshold,
                     std::uint64_t* mask)
{
    Mask_words out{mask + first / 64};
    means_scan(samples, first, n, window, carry, [&](std::size_t g, vd m) {
        out.add(g, movemask(m > threshold));
    });
}

void excess_ratio_mask(const double* samples, std::size_t first, std::size_t n,
                       std::size_t window, double* carry, double noise_power,
                       double threshold, std::uint64_t* mask, double* peak)
{
    const double noise_variance = noise_power * noise_power;
    Mask_words out{mask + first / 64};
    vd top = splat(*peak);
    stats_scan(samples, first, n, window, carry, [&](std::size_t g, vd m, vd v) {
        // std::max(mean − σ², 1e-12) is (x < 1e-12 ? 1e-12 : x) =
        // vmaxpd(1e-12, x), NaN included.
        const vd signal_power = max_lanes(splat(1e-12), m - noise_power);
        const vd ratio = v / (2.0 * signal_power * noise_power + noise_variance);
        // std::max(peak, ratio) = (peak < ratio ? ratio : peak) =
        // vmaxpd(ratio, peak): a NaN ratio leaves the peak alone.
        top = max_lanes(ratio, top);
        out.add(g, movemask(ratio > threshold));
    });
    // Every lane's peak is a max over a NaN-free set that holds *peak,
    // and the max of such a set does not depend on the order it is taken
    // in (ratios above the 1e-12 floor are positive: no ±0 ties).
    double result = *peak;
    for (std::size_t i = 0; i < lanes; ++i)
        result = result < top[i] ? top[i] : result;
    *peak = result;
}

void msk_decide(const double* interleaved_samples, std::size_t transitions,
                std::uint64_t* words)
{
    for (std::size_t w = 0; w * 64 < transitions; ++w) {
        std::uint64_t word = 0;
        for (std::size_t j = 0; j < 64; j += lanes) {
            const double* y = interleaved_samples + 2 * (w * 64 + j);
            vd ar;
            vd ai;
            vd br;
            vd bi;
            deinterleave(y, ar, ai);
            deinterleave(y + 2, br, bi);
            const vd im = br * -ai + bi * ar;
            const vd re = br * ar - bi * -ai;
            // 1 where im > 0, or im == ±0 unless both im and re carry a
            // sign bit (the scalar rule: im == -0.0 defers to !signbit(re)).
            const vi both_negative = ((vi)im & (vi)re) < 0;
            const std::uint64_t one =
                movemask((im > 0.0) | ((im == 0.0) & ~both_negative));
            word |= one << j;
        }
        words[w] = word;
    }
}

/// The fast MSK modulator (see simd.h): per word, a prefix XOR gives the
/// parity after each bit, and each sample is its quadrant's entry — a
/// fixed base pattern whose sign bits the parity flips.  Bit k's sample
/// is (im, re) for even k and (re, im) for odd k; with parity 0 its two
/// sign bits are (0,1), (1,1), (1,0), (0,0) for k % 4 = 0, 1, 2, 3, and a
/// parity of 1 flips both.  A vector holds lanes / 2 samples, starting at
/// an even k, so the pattern and base are lane constants.
void msk_modulate(const std::uint64_t* words, std::size_t count, double re,
                  double im, double* interleaved_out)
{
    constexpr std::uint64_t sign_pattern[8] = {0, 1, 1, 1, 1, 0, 0, 0};
    const vi lane = lane_index();
    const vd base = ((lane ^ (lane >> 1)) & 1) == 0 ? splat(im) : splat(re);
    const vu sample_of_lane = (vu)(lane >> 1);
    std::uint64_t carry = 0; // all ones when the bits so far have odd parity
    for (std::size_t w = 0; w * 64 < count; ++w) {
        std::uint64_t p = words[w];
        p ^= p << 1;
        p ^= p << 2;
        p ^= p << 4;
        p ^= p << 8;
        p ^= p << 16;
        p ^= p << 32;
        p ^= carry;
        carry = 0 - (p >> 63);
        const vu parity = (vu){} + p;
        for (std::size_t j = 0; j < 64; j += lanes / 2) {
            vu pattern;
            __builtin_memcpy(&pattern, sign_pattern + 2 * (j % 4), sizeof pattern);
            const vu flips = ((parity >> (sample_of_lane + j)) ^ pattern) & 1;
            store(interleaved_out + 2 * (w * 64 + j), from_bits(bits(base) ^ (flips << 63)));
        }
    }
}

// Bit-domain pilot-scan kernels (phy/pilot.cpp): integer-exact XOR +
// popcount loops, here only for the hardware popcnt instruction that
// both ISA flag sets imply (a baseline x86-64 build compiles
// std::popcount to a libgcc call per word).  __builtin_popcountll
// rather than std::popcount keeps <bit> out of this file.

void pilot_scan_starts(const std::uint64_t* words, const std::uint64_t* shifted,
                       const std::uint64_t* masks, std::size_t stride,
                       std::size_t from, std::size_t to, std::size_t max_errors,
                       std::uint64_t* best_key)
{
    for (std::size_t start = from; start <= to; ++start) {
        const std::uint64_t* hay = words + (start >> 6);
        const std::uint64_t* copy = shifted + (start & 63) * stride;
        const std::uint64_t* mask = masks + (start & 63) * stride;
        std::size_t errors = 0;
        for (std::size_t k = 0; k < stride && errors <= max_errors; ++k)
            errors += static_cast<std::size_t>(
                __builtin_popcountll((hay[k] ^ copy[k]) & mask[k]));
        if (errors <= max_errors) {
            const std::uint64_t key = (static_cast<std::uint64_t>(errors) << 48) | start;
            if (key < *best_key)
                *best_key = key;
            if (errors == 0)
                break;
        }
    }
}

void pilot_scan_striped(const std::uint64_t* words, const std::uint64_t* shifted,
                        const std::uint64_t* masks, std::size_t w_lo,
                        std::size_t w_hi, std::size_t max_errors,
                        std::uint64_t* best_key)
{
    std::uint64_t best = *best_key;
    for (std::size_t s = 0; s < 64; ++s) {
        const std::uint64_t c0 = shifted[2 * s];
        const std::uint64_t c1 = shifted[2 * s + 1];
        const std::uint64_t m0 = masks[2 * s];
        const std::uint64_t m1 = masks[2 * s + 1];
        for (std::size_t w = w_lo; w <= w_hi; ++w) {
            const auto errors =
                static_cast<std::size_t>(__builtin_popcountll((words[w] ^ c0) & m0))
                + static_cast<std::size_t>(
                    __builtin_popcountll((words[w + 1] ^ c1) & m1));
            if (errors <= max_errors) {
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(errors) << 48) | (w * 64 + s);
                best = key < best ? key : best;
            }
        }
    }
    *best_key = best;
}

} // namespace

extern const Lane_kernels ANC_LANE_TABLE = {
    lanes,
    atan2_batch,
    sincos_batch,
    log_batch,
    polar_batch,
    anc_candidates_batch,
    anc_select_batch,
    diff_arg_batch,
    rotor_accumulate,
    cmul_accumulate,
    counter_normal_fill,
    counter_normal_add_scaled,
    pilot_scan_starts,
    pilot_scan_striped,
    window_stats,
    mean_above_mask,
    excess_ratio_mask,
    msk_decide,
    msk_modulate,
};

} // namespace anc::simd::detail

#include "kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "obs/obs.h"
#include "trace/arena.h"
#include "util/error.h"
#include "util/parallel.h"

#if defined(SOSIM_NATIVE_KERNELS) && defined(__x86_64__)
#define SOSIM_AVX2_COMPILED 1
#include <immintrin.h>
#endif

namespace sosim::trace {

namespace {

void
requireAligned(TraceView a, TraceView b, const char *what)
{
    SOSIM_REQUIRE(!a.empty(), what);
    SOSIM_REQUIRE(a.alignedWith(b), what);
}

} // namespace

TraceView
TraceView::slice(std::size_t first, std::size_t len) const
{
    SOSIM_REQUIRE(first + len <= size_, "TraceView::slice: range out of bounds");
    return TraceView(data_ + first, len, intervalMinutes_);
}

TraceStats
computeStats(TraceView v)
{
    SOSIM_REQUIRE(!v.empty(), "computeStats: view is empty");
    TraceStats st;
    st.peak = v[0];
    st.valley = v[0];
    st.sum = v[0];
    st.peakIndex = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
        const double x = v[i];
        if (x > st.peak) {
            st.peak = x;
            st.peakIndex = i;
        }
        if (x < st.valley)
            st.valley = x;
        st.sum += x;
    }
    st.mean = st.sum / static_cast<double>(v.size());
    return st;
}

double
peakOfSum(TraceView a, TraceView b)
{
    SOSIM_COUNT("trace.kernels.peak_of_sum");
    requireAligned(a, b, "peakOfSum: views must be aligned and non-empty");
    double best = a[0] + b[0];
    for (std::size_t i = 1; i < a.size(); ++i) {
        const double x = a[i] + b[i];
        if (x > best)
            best = x;
    }
    return best;
}

double
peakOfScaledSum(TraceView a, TraceView b, double scale)
{
    SOSIM_COUNT("trace.kernels.peak_of_scaled_sum");
    requireAligned(a, b,
                   "peakOfScaledSum: views must be aligned and non-empty");
    // Two rounding steps per element (multiply, then add), exactly like
    // materializing `b * scale` first and adding it to `a`.
    double best = a[0] + scale * b[0];
    for (std::size_t i = 1; i < a.size(); ++i) {
        const double x = a[i] + scale * b[i];
        if (x > best)
            best = x;
    }
    return best;
}

double
peakOfDiff(TraceView a, TraceView b)
{
    SOSIM_COUNT("trace.kernels.peak_of_diff");
    requireAligned(a, b, "peakOfDiff: views must be aligned and non-empty");
    double best = a[0] - b[0];
    for (std::size_t i = 1; i < a.size(); ++i) {
        const double x = a[i] - b[i];
        if (x > best)
            best = x;
    }
    return best;
}

double
peakOfAddScaledDiff(TraceView c, TraceView a, TraceView b, double scale)
{
    SOSIM_COUNT("trace.kernels.peak_of_add_scaled_diff");
    requireAligned(c, a,
                   "peakOfAddScaledDiff: views must be aligned, non-empty");
    requireAligned(c, b,
                   "peakOfAddScaledDiff: views must be aligned, non-empty");
    double best = c[0] + scale * (a[0] - b[0]);
    for (std::size_t i = 1; i < c.size(); ++i) {
        const double x = c[i] + scale * (a[i] - b[i]);
        if (x > best)
            best = x;
    }
    return best;
}

// peakOfScaledSumEarlyReject / peakOfAddScaledDiffEarlyReject are
// defined after the blocked-kernel dispatch machinery below: they scan
// in dispatched chunks so the early-reject check does not cost the
// vectorized inner loop.

double
accumulatePeak(TimeSeries &dst, TraceView src)
{
    SOSIM_REQUIRE(!dst.empty(),
                  "accumulatePeak: destination must be non-empty");
    SOSIM_REQUIRE(TraceView(dst).alignedWith(src),
                  "accumulatePeak: views must be aligned");
    // Taking one mutable reference invalidates dst's stats cache; the
    // remaining writes go through the raw pointer.
    return accumulatePeakRow(&dst[0], src);
}

double
accumulatePeakRow(double *dst, TraceView src)
{
    SOSIM_COUNT("trace.kernels.accumulate_peak");
    SOSIM_REQUIRE(!src.empty(), "accumulatePeakRow: source must be "
                                "non-empty");
    double best = (dst[0] += src[0]);
    for (std::size_t i = 1; i < src.size(); ++i) {
        const double x = (dst[i] += src[i]);
        if (x > best)
            best = x;
    }
    return best;
}

double
subAddPeakRow(double *dst, TraceView add, TraceView sub)
{
    SOSIM_COUNT("trace.kernels.sub_add_peak");
    SOSIM_REQUIRE(!add.empty() && add.alignedWith(sub),
                  "subAddPeakRow: views must be aligned and non-empty");
    // Per element: subtract first, then add — the identical rounding
    // sequence of the `dst -= sub; dst += add` passes this fuses.
    double best = (dst[0] = (dst[0] - sub[0]) + add[0]);
    for (std::size_t i = 1; i < add.size(); ++i) {
        const double x = (dst[i] = (dst[i] - sub[i]) + add[i]);
        if (x > best)
            best = x;
    }
    return best;
}

double
diffPeakRow(double *dst, TraceView a, TraceView b)
{
    SOSIM_COUNT("trace.kernels.diff_peak_row");
    requireAligned(a, b,
                   "diffPeakRow: views must be aligned and non-empty");
    double best = (dst[0] = a[0] - b[0]);
    for (std::size_t i = 1; i < a.size(); ++i) {
        const double x = (dst[i] = a[i] - b[i]);
        if (x > best)
            best = x;
    }
    return best;
}

/*
 * ── Blocked kernels ──────────────────────────────────────────────────
 *
 * Each kernel exists as a portable multi-accumulator loop (written so
 * the compiler's vectorizer sees independent lanes) and, when
 * SOSIM_NATIVE compiled them in, as an AVX2 implementation selected at
 * runtime.  The AVX2 code uses separate mul/add — never FMA — so every
 * element value is bit-identical to the scalar expression and only the
 * (association-insensitive) max-reduction is reordered.
 */

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double
peakOfSumGeneric(const double *a, const double *b, std::size_t n)
{
    double m0 = kNegInf, m1 = kNegInf, m2 = kNegInf, m3 = kNegInf;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        m0 = std::max(m0, a[i] + b[i]);
        m1 = std::max(m1, a[i + 1] + b[i + 1]);
        m2 = std::max(m2, a[i + 2] + b[i + 2]);
        m3 = std::max(m3, a[i + 3] + b[i + 3]);
    }
    double best = std::max(std::max(m0, m1), std::max(m2, m3));
    for (; i < n; ++i)
        best = std::max(best, a[i] + b[i]);
    return best;
}

double
peakOfScaledSumGeneric(const double *a, const double *b, double s,
                       std::size_t n)
{
    double m0 = kNegInf, m1 = kNegInf, m2 = kNegInf, m3 = kNegInf;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        m0 = std::max(m0, a[i] + s * b[i]);
        m1 = std::max(m1, a[i + 1] + s * b[i + 1]);
        m2 = std::max(m2, a[i + 2] + s * b[i + 2]);
        m3 = std::max(m3, a[i + 3] + s * b[i + 3]);
    }
    double best = std::max(std::max(m0, m1), std::max(m2, m3));
    for (; i < n; ++i)
        best = std::max(best, a[i] + s * b[i]);
    return best;
}

double
peakOfAddScaledDiffGeneric(const double *c, const double *a,
                           const double *b, double s, std::size_t n)
{
    double m0 = kNegInf, m1 = kNegInf, m2 = kNegInf, m3 = kNegInf;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        m0 = std::max(m0, c[i] + s * (a[i] - b[i]));
        m1 = std::max(m1, c[i + 1] + s * (a[i + 1] - b[i + 1]));
        m2 = std::max(m2, c[i + 2] + s * (a[i + 2] - b[i + 2]));
        m3 = std::max(m3, c[i + 3] + s * (a[i + 3] - b[i + 3]));
    }
    double best = std::max(std::max(m0, m1), std::max(m2, m3));
    for (; i < n; ++i)
        best = std::max(best, c[i] + s * (a[i] - b[i]));
    return best;
}

#if SOSIM_AVX2_COMPILED

__attribute__((target("avx2"))) double
horizontalMax(__m256d m, double tail_best)
{
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, m);
    const double a = std::max(lanes[0], lanes[1]);
    const double b = std::max(lanes[2], lanes[3]);
    return std::max(std::max(a, b), tail_best);
}

__attribute__((target("avx2"))) double
peakOfSumAvx2(const double *a, const double *b, std::size_t n)
{
    __m256d m0 = _mm256_set1_pd(kNegInf);
    __m256d m1 = _mm256_set1_pd(kNegInf);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        m0 = _mm256_max_pd(m0, _mm256_add_pd(_mm256_loadu_pd(a + i),
                                             _mm256_loadu_pd(b + i)));
        m1 = _mm256_max_pd(m1, _mm256_add_pd(_mm256_loadu_pd(a + i + 4),
                                             _mm256_loadu_pd(b + i + 4)));
    }
    double best = kNegInf;
    for (; i < n; ++i)
        best = std::max(best, a[i] + b[i]);
    return horizontalMax(_mm256_max_pd(m0, m1), best);
}

__attribute__((target("avx2"))) double
peakOfScaledSumAvx2(const double *a, const double *b, double s,
                    std::size_t n)
{
    const __m256d vs = _mm256_set1_pd(s);
    __m256d m0 = _mm256_set1_pd(kNegInf);
    __m256d m1 = _mm256_set1_pd(kNegInf);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // mul then add, two rounding steps — matches the scalar a + s*b.
        m0 = _mm256_max_pd(
            m0, _mm256_add_pd(_mm256_loadu_pd(a + i),
                              _mm256_mul_pd(vs, _mm256_loadu_pd(b + i))));
        m1 = _mm256_max_pd(
            m1,
            _mm256_add_pd(_mm256_loadu_pd(a + i + 4),
                          _mm256_mul_pd(vs, _mm256_loadu_pd(b + i + 4))));
    }
    double best = kNegInf;
    for (; i < n; ++i)
        best = std::max(best, a[i] + s * b[i]);
    return horizontalMax(_mm256_max_pd(m0, m1), best);
}

__attribute__((target("avx2"))) double
peakOfAddScaledDiffAvx2(const double *c, const double *a, const double *b,
                        double s, std::size_t n)
{
    const __m256d vs = _mm256_set1_pd(s);
    __m256d m0 = _mm256_set1_pd(kNegInf);
    __m256d m1 = _mm256_set1_pd(kNegInf);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(a + i),
                                         _mm256_loadu_pd(b + i));
        const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4));
        m0 = _mm256_max_pd(m0, _mm256_add_pd(_mm256_loadu_pd(c + i),
                                             _mm256_mul_pd(vs, d0)));
        m1 = _mm256_max_pd(m1, _mm256_add_pd(_mm256_loadu_pd(c + i + 4),
                                             _mm256_mul_pd(vs, d1)));
    }
    double best = kNegInf;
    for (; i < n; ++i)
        best = std::max(best, c[i] + s * (a[i] - b[i]));
    return horizontalMax(_mm256_max_pd(m0, m1), best);
}

#endif // SOSIM_AVX2_COMPILED

/** Function-pointer table the blocked kernels route through. */
struct KernelDispatch {
    double (*peakOfSum)(const double *, const double *, std::size_t);
    double (*peakOfScaledSum)(const double *, const double *, double,
                              std::size_t);
    double (*peakOfAddScaledDiff)(const double *, const double *,
                                  const double *, double, std::size_t);
    const char *isa;
};

KernelDispatch
pickDispatch()
{
    KernelDispatch d{peakOfSumGeneric, peakOfScaledSumGeneric,
                     peakOfAddScaledDiffGeneric, "generic"};
#if SOSIM_AVX2_COMPILED
    const char *env = std::getenv("SOSIM_NATIVE");
    const bool disabled = env != nullptr && env[0] == '0';
    if (!disabled && __builtin_cpu_supports("avx2")) {
        d = {peakOfSumAvx2, peakOfScaledSumAvx2, peakOfAddScaledDiffAvx2,
             "avx2"};
    }
#endif
    return d;
}

/** Resolved once on first use (thread-safe magic static). */
const KernelDispatch &
dispatch()
{
    static const KernelDispatch d = pickDispatch();
    return d;
}

} // namespace

const char *
kernelIsaName()
{
    return dispatch().isa;
}

namespace {

/**
 * Elements scanned between early-reject checks.  Each chunk goes
 * through the dispatched (AVX2 / generic multi-accumulator) peak
 * kernels, so the check never sits inside the vectorized loop; one
 * division per chunk is noise, and most failing candidates abort
 * within a few chunks.
 */
constexpr std::size_t kRejectStride = 256;

/** Prefix peak already proves numerator / peak <= threshold? */
inline bool
rejectDecided(double best, double numerator, double threshold)
{
    // Only valid for a positive prefix peak: the zero-power branch
    // (peak <= 0 -> score 0.0) needs the full scan's sign.  For
    // best > 0 the argument is exact — the running max only grows and
    // IEEE division is monotone in the denominator, so once the prefix
    // score is <= threshold the full score is too.
    return best > 0.0 && numerator / best <= threshold;
}

} // namespace

double
peakOfScaledSumEarlyReject(TraceView a, TraceView b, double scale,
                           double numerator, double threshold)
{
    SOSIM_COUNT("trace.kernels.peak_of_scaled_sum");
    requireAligned(a, b, "peakOfScaledSumEarlyReject: views must be "
                         "aligned and non-empty");
    const KernelDispatch &d = dispatch();
    const std::size_t n = a.size();
    double best = kNegInf;
    std::size_t i = 0;
    while (i < n) {
        const std::size_t len = std::min(n - i, kRejectStride);
        const double chunk =
            d.peakOfScaledSum(a.data() + i, b.data() + i, scale, len);
        if (chunk > best)
            best = chunk;
        i += len;
        if (i < n && rejectDecided(best, numerator, threshold)) {
            SOSIM_COUNT("trace.kernels.early_rejects");
            return best;
        }
    }
    return best;
}

double
peakOfAddScaledDiffEarlyReject(TraceView c, TraceView a, TraceView b,
                               double scale, double numerator,
                               double threshold)
{
    SOSIM_COUNT("trace.kernels.peak_of_add_scaled_diff");
    requireAligned(c, a, "peakOfAddScaledDiffEarlyReject: views must be "
                         "aligned, non-empty");
    requireAligned(c, b, "peakOfAddScaledDiffEarlyReject: views must be "
                         "aligned, non-empty");
    const KernelDispatch &d = dispatch();
    const std::size_t n = c.size();
    double best = kNegInf;
    std::size_t i = 0;
    while (i < n) {
        const std::size_t len = std::min(n - i, kRejectStride);
        const double chunk = d.peakOfAddScaledDiff(
            c.data() + i, a.data() + i, b.data() + i, scale, len);
        if (chunk > best)
            best = chunk;
        i += len;
        if (i < n && rejectDecided(best, numerator, threshold)) {
            SOSIM_COUNT("trace.kernels.early_rejects");
            return best;
        }
    }
    return best;
}

double
peakOfSumBlocked(TraceView a, TraceView b)
{
    SOSIM_COUNT("trace.kernels.peak_of_sum_blocked");
    requireAligned(a, b,
                   "peakOfSumBlocked: views must be aligned and non-empty");
    return dispatch().peakOfSum(a.data(), b.data(), a.size());
}

std::size_t
countValid(TraceView v)
{
    std::size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    const double *p = v.data();
    const std::size_t n = v.size();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        c0 += std::isfinite(p[i]) ? 1 : 0;
        c1 += std::isfinite(p[i + 1]) ? 1 : 0;
        c2 += std::isfinite(p[i + 2]) ? 1 : 0;
        c3 += std::isfinite(p[i + 3]) ? 1 : 0;
    }
    for (; i < n; ++i)
        c0 += std::isfinite(p[i]) ? 1 : 0;
    return c0 + c1 + c2 + c3;
}

std::vector<double>
scoreVectorsBatch(const TraceArena &itraces, const TraceArena &straces)
{
    SOSIM_SPAN("trace.kernels.score_vectors_batch");
    SOSIM_REQUIRE(!itraces.empty() && !straces.empty(),
                  "scoreVectorsBatch: both arenas must hold rows");
    SOSIM_REQUIRE(itraces.samplesPerTrace() == straces.samplesPerTrace() &&
                      itraces.intervalMinutes() ==
                          straces.intervalMinutes(),
                  "scoreVectorsBatch: arenas must be aligned");
    const std::size_t rows = itraces.size();
    const std::size_t cols = straces.size();
    std::vector<double> peaks(rows * cols);
    util::parallelFor(rows, [&](std::size_t i) {
        const TraceView a = itraces.view(i);
        for (std::size_t j = 0; j < cols; ++j)
            peaks[i * cols + j] = peakOfSumBlocked(a, straces.view(j));
    });
    return peaks;
}

} // namespace sosim::trace

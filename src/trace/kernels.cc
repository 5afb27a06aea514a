#include "kernels.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "trace/arena.h"
#include "util/error.h"
#include "util/parallel.h"

/*
 * On x86-64 the compiler builds each scan body twice, for AVX2 and for
 * the baseline ISA, and the loader picks one per process from the CPU.
 * Both clones run the same source, so they return the same bits.
 * The AVX2 clone is what keeps the scan fast: for the baseline ISA
 * GCC lowers the 256-bit select to scalar maxsd, and that body alone
 * made perfbench's fleet remap 3.3x slower (DESIGN.md section 10.3).
 *
 * Not under ThreadSanitizer: GCC instruments the clones' ifunc
 * resolver, which runs during relocation before the TSan runtime is
 * up, so the process crashes at load.  That build compiles the one
 * body for the baseline ISA.
 */
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define SOSIM_SCAN_CLONES __attribute__((target_clones("avx2", "default")))
#define SOSIM_SCAN_AVX2_CLONE 1
#else
#define SOSIM_SCAN_CLONES
#define SOSIM_SCAN_AVX2_CLONE 0
#endif

namespace sosim::trace {

namespace {

void
requireAligned(TraceView a, TraceView b, const char *what)
{
    SOSIM_REQUIRE(!a.empty(), what);
    SOSIM_REQUIRE(a.alignedWith(b), what);
}

/*
 * Element expressions of the peak operations, one per operation.  Each
 * applies the same IEEE operations in the same order as its
 * materializing formulation (separate multiply and add, never fused).
 */

struct Single {
    const double *a;
    double operator()(std::size_t i) const { return a[i]; }
};

struct Sum {
    const double *a, *b;
    double operator()(std::size_t i) const { return a[i] + b[i]; }
};

struct ScaledSum {
    const double *a, *b;
    double s;
    double operator()(std::size_t i) const { return a[i] + s * b[i]; }
};

struct Diff {
    const double *a, *b;
    double operator()(std::size_t i) const { return a[i] - b[i]; }
};

struct AddScaledDiff {
    const double *c, *a, *b;
    double s;
    double operator()(std::size_t i) const
    {
        return c[i] + s * (a[i] - b[i]);
    }
};

/** Four doubles in one 256-bit value (GCC vector extension). */
using Lanes = double __attribute__((vector_size(32)));

/**
 * The one peak scan: the running peak of expr(i) for i in [first, end),
 * starting from `seed`.  Eight independent lanes (two Lanes values)
 * each update with m = x > m ? x : m, which the vectorizer maps onto
 * packed max instructions, and then fold with the same rule.
 *
 * Every lane starts from `seed` and the update never takes a NaN, so
 * the result is NaN exactly when `seed` is, and otherwise the largest
 * non-NaN value among seed and the scanned elements.  Seeded with the
 * expression's first element that is the strict left-to-right scan of
 * computeStats(), NaN included.
 */
template <class Expr>
[[gnu::always_inline]] inline double
scanPeak(Expr expr, double seed, std::size_t first, std::size_t end)
{
    Lanes m0 = {seed, seed, seed, seed};
    Lanes m1 = m0;
    std::size_t i = first;
    for (; i + 8 <= end; i += 8) {
        const Lanes x0 = {expr(i), expr(i + 1), expr(i + 2), expr(i + 3)};
        const Lanes x1 = {expr(i + 4), expr(i + 5), expr(i + 6),
                          expr(i + 7)};
        m0 = x0 > m0 ? x0 : m0;
        m1 = x1 > m1 ? x1 : m1;
    }
    double best = seed;
    for (int l = 0; l < 4; ++l) {
        best = m0[l] > best ? m0[l] : best;
        best = m1[l] > best ? m1[l] : best;
    }
    for (; i < end; ++i) {
        const double x = expr(i);
        best = x > best ? x : best;
    }
    return best;
}

// One compiled body per peak operation; scanPeak is always inlined so
// each clone vectorizes for its own ISA.

SOSIM_SCAN_CLONES double
scan(Single e, double seed, std::size_t first, std::size_t end)
{
    return scanPeak(e, seed, first, end);
}

SOSIM_SCAN_CLONES double
scan(Sum e, double seed, std::size_t first, std::size_t end)
{
    return scanPeak(e, seed, first, end);
}

SOSIM_SCAN_CLONES double
scan(ScaledSum e, double seed, std::size_t first, std::size_t end)
{
    return scanPeak(e, seed, first, end);
}

SOSIM_SCAN_CLONES double
scan(Diff e, double seed, std::size_t first, std::size_t end)
{
    return scanPeak(e, seed, first, end);
}

SOSIM_SCAN_CLONES double
scan(AddScaledDiff e, double seed, std::size_t first, std::size_t end)
{
    return scanPeak(e, seed, first, end);
}

/** Peak of e over [0, n), seeded with its first element. */
template <class Expr>
double
peakOfExpr(Expr e, std::size_t n)
{
    return scan(e, e(0), 0, n);
}

/**
 * Elements scanned between early-reject checks: one division per chunk
 * is noise next to the chunk's vector loop, and most failing candidates
 * abort within a few chunks.
 */
constexpr std::size_t kRejectStride = 256;

/**
 * peakOfExpr(e, n) that stops once the prefix peak proves
 * numerator / peak <= threshold (see kernels.h).  Each chunk is seeded
 * with the running peak, so a NaN first element still poisons the
 * result and a NaN at a chunk start is skipped, exactly as in the
 * full scan.
 */
template <class Expr>
double
peakOfEarlyReject(Expr e, std::size_t n, double numerator, double threshold)
{
    double best = e(0);
    for (std::size_t i = 0; i < n; i += kRejectStride) {
        const std::size_t end = std::min(n, i + kRejectStride);
        best = scan(e, best, i, end);
        // Only valid for a positive prefix peak: the zero-power branch
        // (peak <= 0 -> score 0.0) needs the full scan's sign.  For
        // best > 0 the argument is exact — the running max only grows
        // and IEEE division is monotone in the denominator, so once the
        // prefix score is <= threshold the full score is too.
        if (end < n && best > 0.0 && numerator / best <= threshold) {
            SOSIM_COUNT("trace.kernels.early_rejects");
            return best;
        }
    }
    return best;
}

} // namespace

TraceView
TraceView::slice(std::size_t first, std::size_t len) const
{
    SOSIM_REQUIRE(first <= size_ && len <= size_ - first,
                  "TraceView::slice: range out of bounds");
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
peakOf(TraceView v)
{
    SOSIM_COUNT("trace.kernels.peak_of");
    SOSIM_REQUIRE(!v.empty(), "peakOf: view is empty");
    return peakOfExpr(Single{v.data()}, v.size());
}

double
peakOfSum(TraceView a, TraceView b)
{
    SOSIM_COUNT("trace.kernels.peak_of_sum");
    requireAligned(a, b, "peakOfSum: views must be aligned and non-empty");
    return peakOfExpr(Sum{a.data(), b.data()}, a.size());
}

double
peakOfScaledSum(TraceView a, TraceView b, double scale)
{
    SOSIM_COUNT("trace.kernels.peak_of_scaled_sum");
    requireAligned(a, b,
                   "peakOfScaledSum: views must be aligned and non-empty");
    return peakOfExpr(ScaledSum{a.data(), b.data(), scale}, a.size());
}

double
peakOfDiff(TraceView a, TraceView b)
{
    SOSIM_COUNT("trace.kernels.peak_of_diff");
    requireAligned(a, b, "peakOfDiff: views must be aligned and non-empty");
    return peakOfExpr(Diff{a.data(), b.data()}, a.size());
}

double
peakOfAddScaledDiff(TraceView c, TraceView a, TraceView b, double scale)
{
    SOSIM_COUNT("trace.kernels.peak_of_add_scaled_diff");
    requireAligned(c, a,
                   "peakOfAddScaledDiff: views must be aligned, non-empty");
    requireAligned(c, b,
                   "peakOfAddScaledDiff: views must be aligned, non-empty");
    return peakOfExpr(AddScaledDiff{c.data(), a.data(), b.data(), scale},
                      c.size());
}

double
peakOfScaledSumEarlyReject(TraceView a, TraceView b, double scale,
                           double numerator, double threshold)
{
    SOSIM_COUNT("trace.kernels.peak_of_scaled_sum");
    requireAligned(a, b, "peakOfScaledSumEarlyReject: views must be "
                         "aligned and non-empty");
    return peakOfEarlyReject(ScaledSum{a.data(), b.data(), scale}, a.size(),
                             numerator, threshold);
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
    return peakOfEarlyReject(
        AddScaledDiff{c.data(), a.data(), b.data(), scale}, c.size(),
        numerator, threshold);
}

double
accumulatePeak(TimeSeries &dst, TraceView src)
{
    SOSIM_REQUIRE(!dst.empty(),
                  "accumulatePeak: destination must be non-empty");
    SOSIM_REQUIRE(TraceView(dst).alignedWith(src),
                  "accumulatePeak: views must be aligned");
    return accumulatePeakRow(dst.data(), src);
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

const char *
kernelIsaName()
{
#if SOSIM_SCAN_AVX2_CLONE
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "generic";
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
            peaks[i * cols + j] = peakOfSum(a, straces.view(j));
    });
    return peaks;
}

} // namespace sosim::trace

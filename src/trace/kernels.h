#ifndef SOSIM_TRACE_KERNELS_H
#define SOSIM_TRACE_KERNELS_H

/**
 * @file
 * Non-owning trace views and allocation-free scoring kernels.
 *
 * Every asynchrony score in the system reduces to "the peak of a (scaled)
 * sum of week-long vectors" (Eq. 6-7).  The naive formulation materializes
 * the sum as a temporary TimeSeries just to take its maximum; at placement
 * scale that is one heap allocation and several extra memory passes per
 * scored pair.  The kernels here fuse the arithmetic with the max-scan so
 * each score is a single pass over the operands and never allocates.
 *
 * Determinism note: every kernel applies the same floating-point operations
 * per element as the materializing formulation it replaces, and a running
 * max does not depend on the order it visits elements, so results equal
 * the `(a + b).peak()` style they replace.  NaN follows the same rule as
 * computeStats(): the peak is NaN exactly when the first element is, and
 * later NaNs are skipped.  tests/test_kernels.cc pins this.
 */

#include <cstddef>
#include <vector>

#include "trace/time_series.h"

namespace sosim::trace {

class TraceArena; // trace/arena.h

/**
 * A non-owning view of a trace: a span of samples plus the sampling
 * interval.  Cheap to copy (pointer + size + int); the viewed storage must
 * outlive the view.  TimeSeries converts implicitly, so every kernel can
 * be called directly on owned traces or on raw sample buffers.
 */
class TraceView
{
  public:
    /** An empty view. */
    TraceView() = default;

    /** View over a raw sample buffer. */
    TraceView(const double *data, std::size_t size, int interval_minutes)
        : data_(data), size_(size), intervalMinutes_(interval_minutes)
    {}

    /** Implicit view of an owned series (lifetime: the series). */
    TraceView(const TimeSeries &ts)
        : data_(ts.samples().data()), size_(ts.size()),
          intervalMinutes_(ts.intervalMinutes())
    {}

    /** Number of samples viewed. */
    std::size_t size() const { return size_; }

    /** True when no samples are viewed. */
    bool empty() const { return size_ == 0; }

    /** Sampling interval in minutes. */
    int intervalMinutes() const { return intervalMinutes_; }

    /** Unchecked element access. */
    double operator[](std::size_t i) const { return data_[i]; }

    /** Raw sample pointer. */
    const double *data() const { return data_; }

    /** Iteration support. */
    const double *begin() const { return data_; }
    const double *end() const { return data_ + size_; }

    /** True when size and interval match (arithmetic is legal). */
    bool alignedWith(const TraceView &other) const
    {
        return size_ == other.size_ &&
               intervalMinutes_ == other.intervalMinutes_;
    }

    /** Contiguous sub-view of len samples starting at `first` (checked). */
    TraceView slice(std::size_t first, std::size_t len) const;

  private:
    const double *data_ = nullptr;
    std::size_t size_ = 0;
    int intervalMinutes_ = 1;
};

/** Summary statistics of a trace, computed in one pass. */
struct TraceStats {
    /** Maximum sample value; the paper's peak(P). */
    double peak = 0.0;
    /** Minimum sample value. */
    double valley = 0.0;
    /** Sum of the samples. */
    double sum = 0.0;
    /** Arithmetic mean of the samples. */
    double mean = 0.0;
    /** Index of the first maximum sample. */
    std::size_t peakIndex = 0;
};

/**
 * Single-pass summary statistics of a trace (TimeSeries::stats()).
 * Requires non-empty.
 */
TraceStats computeStats(TraceView v);

/**
 * peak(v): the vector peak scan every fused kernel below runs, over one
 * operand (TimeSeries::peak()).  Equals computeStats(v).peak under ==,
 * NaN rule included (a zero peak may differ in sign; DESIGN.md 7.1).
 * Requires non-empty.
 */
double peakOf(TraceView v);

/** Fused peak(a + b); no temporary.  Views must be aligned, non-empty. */
double peakOfSum(TraceView a, TraceView b);

/**
 * Fused peak(a + s*b); no temporary.  The element expression is evaluated
 * as `a[i] + (s * b[i])`, matching the materializing `a + (b * s)` path
 * bit for bit.  Views must be aligned and non-empty.
 */
double peakOfScaledSum(TraceView a, TraceView b, double scale);

/** Fused peak(a - b); no temporary.  Views must be aligned, non-empty. */
double peakOfDiff(TraceView a, TraceView b);

/**
 * Fused peak(c + s*(a - b)); no temporary.  This is the remap inner loop:
 * the differential score of candidate `c` against a rack whose aggregate
 * is `a` with member `b` removed, where `s = 1 / other_count`.  Matches
 * the materializing `c + ((a - b) * s)` path bit for bit.
 */
double peakOfAddScaledDiff(TraceView c, TraceView a, TraceView b,
                           double scale);

/*
 * Early-reject peak kernels: the swap scan in core::remap computes
 * `score = numerator / peak(...)` only to test `score <= threshold` and
 * discard the candidate.  Because the running max never decreases and
 * IEEE division is monotone in its denominator, the test's outcome is
 * decided the moment the *prefix* peak alone drives the score to or
 * below the threshold — the rest of the scan cannot change the
 * decision.  These variants check that condition every few dozen
 * elements (only while the prefix peak is positive, so the zero-power
 * branch is untouched) and abort the scan once rejection is proven.
 *
 * Contract: the returned value is bit-identical to the plain kernel
 * whenever `numerator / result > threshold` (the accept case, where the
 * caller uses the value); on an aborted scan the returned prefix peak
 * still yields `numerator / result <= threshold`, so the caller's
 * accept test takes the identical branch.  Decisions are therefore
 * exactly those of the full-scan kernels, on any input: each chunk
 * continues the same scan from the running peak, so the NaN rule above
 * holds too (a NaN peak is never positive, so it never aborts).
 */

/** peakOfScaledSum with early rejection (see the contract above). */
double peakOfScaledSumEarlyReject(TraceView a, TraceView b, double scale,
                                  double numerator, double threshold);

/** peakOfAddScaledDiff with early rejection (see the contract above). */
double peakOfAddScaledDiffEarlyReject(TraceView c, TraceView a,
                                      TraceView b, double scale,
                                      double numerator, double threshold);

/**
 * Element-wise accumulate `src` into `dst` and return the peak of the
 * *updated* dst, in one fused pass.  This is the building block of
 * aggregate scores: summing n member traces costs n passes total and the
 * final call's return value is peak(Σ).
 *
 * @return Peak of dst after the accumulation.
 */
double accumulatePeak(TimeSeries &dst, TraceView src);

/**
 * Raw-row form of accumulatePeak for arena rows: dst[i] += src[i] with a
 * fused max-scan of the updated row.  Same operations in the same order
 * as accumulatePeak.
 */
double accumulatePeakRow(double *dst, TraceView src);

/**
 * Fused swap application for running-sum rows:
 * dst[i] = (dst[i] - sub[i]) + add[i], returning the peak of the updated
 * row in the same pass.  Element-wise this is exactly the two-pass
 * `dst -= sub; dst += add` it replaces (each element sees the identical
 * rounding sequence), so results are bit-identical; the fusion only saves
 * a memory pass.  One call per affected rack applies a member swap.
 */
double subAddPeakRow(double *dst, TraceView add, TraceView sub);

/**
 * Materialize dst[i] = a[i] - b[i] and return the peak of dst in the
 * same pass (strict scan order).  core::remap uses this to hoist the
 * per-candidate "rack minus leaver" row out of the swap inner loop.
 */
double diffPeakRow(double *dst, TraceView a, TraceView b);

/**
 * Which embedding path core::embedPopulation runs
 * (PlacementConfig::kernels).  kStrict (the default) scores pairs one
 * fused kernel call at a time; kBlocked packs the populations into
 * arenas and runs scoreVectorsBatch.  Both use the same peak kernels,
 * so they give the same scores.
 */
enum class KernelMode { kStrict, kBlocked };

/**
 * ISA of the peak-scan clone the loader selected: "avx2" on x86-64
 * CPUs with AVX2, otherwise "generic" (also in ThreadSanitizer builds,
 * which compile no AVX2 clone).  Informational only: both clones
 * compute the same values.
 */
const char *kernelIsaName();

/** Count of finite samples. */
std::size_t countValid(TraceView v);

/**
 * Batched peak-of-sum over two arenas: out[i * straces.size() + j] =
 * peak(itraces row i + straces row j), computed with peakOfSum,
 * rows fanned out via util::parallelFor with per-slot writes
 * (bit-identical for any thread count).  This is the raw kernel under
 * the blocked population embedding (core::scoreVectorsBlocked), which
 * turns the peaks into Eq. 7 pair scores.
 */
std::vector<double> scoreVectorsBatch(const TraceArena &itraces,
                                      const TraceArena &straces);

} // namespace sosim::trace

#endif // SOSIM_TRACE_KERNELS_H

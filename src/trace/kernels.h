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
 * in the same order as the materializing formulation it replaces
 * (element-wise op, then running max), so results are bit-identical to the
 * `(a + b).peak()` style they replace.  tests/test_kernels.cc pins this.
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

/**
 * Single-pass summary statistics of a trace (see TimeSeries::stats() for
 * the cached variant).
 */
TraceStats computeStats(TraceView v);

/**
 * Summary statistics over the *valid* (finite) samples of a possibly
 * degraded trace.  validSamples counts the finite entries; the stats
 * fields cover only those.  When validSamples == 0 every stat is 0.0
 * and peakIndex is 0 — the zero-power convention for data that is not
 * there (see DESIGN.md section 9).
 */
struct ValidStats {
    TraceStats stats;
    std::size_t validSamples = 0;

    /** Fraction of finite samples, in [0, 1]; 1.0 for an empty view. */
    double validFraction(std::size_t total) const
    {
        return total == 0 ? 1.0
                          : static_cast<double>(validSamples) /
                                static_cast<double>(total);
    }
};

/**
 * NaN-skipping variant of computeStats for degraded traces.  On a fully
 * finite view the stats field is bit-identical to computeStats(v) (same
 * operations in the same order).  Unlike computeStats, an empty view is
 * legal and yields {zeros, 0}.
 */
ValidStats computeValidStats(TraceView v);

/**
 * Gap-aware peak(a + b): positions where either operand is non-finite
 * are skipped.  `valid_count` (optional) receives the number of
 * positions that contributed.  When no position is valid the result is
 * 0.0 (zero-power convention).  On fully finite inputs the result is
 * bit-identical to peakOfSum.  Views must be aligned and non-empty.
 */
double peakOfSumValid(TraceView a, TraceView b,
                      std::size_t *valid_count = nullptr);

/**
 * Gap-aware sum over the valid samples of one view; `valid_count`
 * (optional) receives how many samples contributed.  0.0 when nothing
 * is valid.
 */
double sumValid(TraceView v, std::size_t *valid_count = nullptr);

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
 * exactly those of the full-scan kernels.  Internally each chunk runs
 * through the dispatched blocked kernels (see below), so like that
 * family these variants require finite inputs — exactly what
 * core::remap::refine guarantees for its gap-free traces.
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
 * final call's return value is peak(Σ).  Invalidates dst's cached stats.
 *
 * @return Peak of dst after the accumulation.
 */
double accumulatePeak(TimeSeries &dst, TraceView src);

/**
 * Raw-row form of accumulatePeak for arena rows: dst[i] += src[i] with a
 * fused max-scan of the updated row.  Same operations in the same order
 * as accumulatePeak; the caller owns stats invalidation.
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

/*
 * ── Blocked kernels ──────────────────────────────────────────────────
 *
 * The strict kernels above scan with a single sequential accumulator, a
 * loop shape whose loop-carried compare keeps the compiler from using
 * wide max instructions.  The *blocked* kernels below break the scan
 * into independent accumulator lanes so they auto-vectorize (and, when
 * compiled with SOSIM_NATIVE on x86-64, dispatch at runtime to an AVX2
 * path — see kernelIsaName()).  The early-reject kernels above run
 * their chunks through the same dispatched bodies.
 *
 * Contract: on finite inputs a blocked peak is bit-identical to its
 * strict sibling — a max-reduction is insensitive to association, and
 * the element expressions apply the identical IEEE operations (the AVX2
 * path deliberately uses separate mul/add, never FMA).  Unlike the
 * strict kernels, which reproduce the reference NaN propagation, the
 * blocked peak kernels require finite data.  tests/test_arena.cc pins
 * the identity.
 */

/**
 * Which kernel family the population embedding runs on
 * (PlacementConfig::kernels, core::embedPopulation).  kStrict (the
 * default) preserves the reference scan order; kBlocked packs the
 * populations into arenas and runs scoreVectorsBatch.  Both give
 * bit-identical peaks on finite traces.
 */
enum class KernelMode { kStrict, kBlocked };

/**
 * ISA the blocked kernels dispatch to at runtime: "avx2" when compiled
 * with SOSIM_NATIVE, running on AVX2 hardware and not disabled via the
 * environment variable SOSIM_NATIVE=0; otherwise "generic" (portable
 * multi-accumulator loops).  Resolved once, on first use.
 */
const char *kernelIsaName();

/** Blocked peak(a + b); finite inputs.  See the contract above. */
double peakOfSumBlocked(TraceView a, TraceView b);

/** Blocked count of finite samples (exact on every input). */
std::size_t countValid(TraceView v);

/**
 * Batched peak-of-sum over two arenas: out[i * straces.size() + j] =
 * peak(itraces row i + straces row j), computed with the blocked
 * kernels, rows fanned out via util::parallelFor with per-slot writes
 * (bit-identical for any thread count).  This is the raw kernel under
 * the blocked population embedding (core::scoreVectorsBlocked), which
 * turns the peaks into Eq. 7 pair scores.
 */
std::vector<double> scoreVectorsBatch(const TraceArena &itraces,
                                      const TraceArena &straces);

} // namespace sosim::trace

#endif // SOSIM_TRACE_KERNELS_H

#ifndef SOSIM_TRACE_ARENA_H
#define SOSIM_TRACE_ARENA_H

/**
 * @file
 * Structure-of-arrays trace storage: every trace of a population lives in
 * one contiguous, 64-byte-aligned buffer.
 *
 * The arena is working storage for rows a computation writes: the
 * remap search keeps its per-rack running sums and candidate scratch rows
 * here, and the test-only blocked embedding (core::scoreVectorsBlocked)
 * packs its operands.  Populations themselves stay where their owner
 * keeps them, a std::vector<TimeSeries>, and are read in place through
 * TraceView.  The rows lie back to back, padded to a 64-byte multiple, so
 *
 *   - TraceView over a row is an offset computation, not a pointer chase;
 *   - every row starts cache-line- (and AVX-512-) aligned, which is what
 *     the vector peak scans in trace/kernels.h want, and per-row writers
 *     on different threads never share a cache line;
 *   - a whole arena copies with one memcpy (a remap resume copies the
 *     kept running sums instead of re-summing them).
 *
 * Rows are identified by a stable TraceId (the insertion index); the
 * TraceId -> row mapping never changes once a row is added, so long-lived
 * consumers (core::remap keeps per-rack running-sum rows here) can hold
 * ids across mutations.  The arena holds samples only.
 *
 * Layout, storage and ordering contract: DESIGN.md section 10.
 */

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <vector>

#include "trace/kernels.h"
#include "trace/time_series.h"

namespace sosim::trace {

/** Stable index of a row in a TraceArena (insertion order). */
using TraceId = std::size_t;

/**
 * A fixed-capacity structure-of-arrays store of equally-shaped traces.
 *
 * Capacity, sample count and interval are fixed at construction; rows are
 * appended up to the capacity and never removed.  Value semantics: copies
 * are deep (one allocation + one memcpy).
 */
class TraceArena
{
  public:
    /** Row alignment in bytes (one cache line; 8 doubles). */
    static constexpr std::size_t kAlignBytes = 64;
    /** Doubles per alignment unit; rows are padded to a multiple. */
    static constexpr std::size_t kAlignDoubles =
        kAlignBytes / sizeof(double);

    /**
     * An empty arena with room for `capacity` rows of
     * `samples_per_trace` samples at `interval_minutes`.
     */
    TraceArena(std::size_t capacity, std::size_t samples_per_trace,
               int interval_minutes);

    /**
     * Build an arena holding a copy of every series of a bundle (row i ==
     * series i), with `extra_rows` spare zero-initialized capacity for
     * caller-managed scratch/aggregate rows.  All series must be aligned
     * with each other and non-empty.
     */
    static TraceArena fromSeries(const std::vector<TimeSeries> &series,
                                 std::size_t extra_rows = 0);

    TraceArena(const TraceArena &other);
    TraceArena &operator=(const TraceArena &other);
    TraceArena(TraceArena &&other) noexcept = default;
    TraceArena &operator=(TraceArena &&other) noexcept = default;

    /** Copy a trace into the next free row; returns its stable id. */
    TraceId addTrace(TraceView v);

    /** Claim the next free row zero-filled (running sums, scratch). */
    TraceId addZeros();

    /** Rows in use. */
    std::size_t size() const { return rows_; }

    /** True when no rows are in use. */
    bool empty() const { return rows_ == 0; }

    /** Maximum number of rows. */
    std::size_t capacity() const { return capacity_; }

    /** Samples per row (the unpadded, logical trace length). */
    std::size_t samplesPerTrace() const { return samples_; }

    /** Doubles from one row's start to the next (includes padding). */
    std::size_t rowStride() const { return stride_; }

    /** Sampling interval of every row, in minutes. */
    int intervalMinutes() const { return intervalMinutes_; }

    /** Non-owning view of a row (lifetime: the arena). */
    TraceView view(TraceId id) const
    {
        return TraceView(rowPtr(id), samples_, intervalMinutes_);
    }

    /** Read-only raw row pointer (64-byte aligned). */
    const double *row(TraceId id) const { return rowPtr(id); }

    /**
     * Writable raw row pointer.  The padding tail beyond
     * samplesPerTrace() must stay zero.
     */
    double *mutableRow(TraceId id);

    /** True when a view's shape matches this arena's rows. */
    bool alignedWith(TraceView v) const
    {
        return v.size() == samples_ &&
               v.intervalMinutes() == intervalMinutes_;
    }

  private:
    /** Releases an aligned_alloc'd buffer. */
    struct RowsFree {
        void operator()(double *p) const { std::free(p); }
    };

    /** Zero-filled storage for `capacity` rows of `stride` doubles. */
    static std::unique_ptr<double[], RowsFree>
    allocateRows(std::size_t capacity, std::size_t stride);

    const double *rowPtr(TraceId id) const;

    std::unique_ptr<double[], RowsFree> data_;
    std::size_t capacity_ = 0;
    std::size_t samples_ = 0;
    std::size_t stride_ = 0;
    std::size_t rows_ = 0;
    int intervalMinutes_ = 1;
};

} // namespace sosim::trace

#endif // SOSIM_TRACE_ARENA_H

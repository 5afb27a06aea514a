#ifndef SOSIM_TRACE_STATS_CACHE_H
#define SOSIM_TRACE_STATS_CACHE_H

/**
 * @file
 * Shared lazy-stats invalidation helpers.
 *
 * Two consumers cache TraceStats behind a validity flag and must agree
 * on the fill/invalidate discipline: TimeSeries (one slot per series)
 * and TraceArena (one slot per row).  Before this header each
 * re-implemented the "if (!valid) { fill; valid = true; }" dance
 * privately, which is exactly the kind of duplication that lets one copy
 * drift (e.g. an invalidation forgotten on a new mutating path).
 * LazyStatsSlot is that dance written once; LazyStatsTable is the
 * per-row form.
 *
 * Thread-safety contract (inherited by every consumer): the lazy fill is
 * not synchronized.  Warm a slot serially (call get()) before sharing it
 * across threads read-only — see the threading note in time_series.h.
 *
 * Telemetry stays at the call site: hit/miss counters need compile-time
 * constant names for the SOSIM_COUNT macro's static-reference cache, so
 * consumers test valid() and count under their own names before calling
 * get().
 */

#include <cstddef>
#include <utility>
#include <vector>

#include "util/error.h"

namespace sosim::trace {

/**
 * Summary statistics of a trace, computed in one pass and cached on the
 * owning store (see TimeSeries::stats() / TraceArena::stats()).  Scoring
 * touches peak() constantly — Eq. 6-7 divide sums of member peaks by
 * aggregate peaks — so recomputing a max-scan per score is the single
 * hottest waste in the naive pipeline.
 */
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
 * One lazily-filled TraceStats slot plus its invalidation flag.  `fill`
 * runs at most once per invalidation and must be idempotent; the slot is
 * mutable-through-const so owners can expose const stats() accessors.
 */
class LazyStatsSlot
{
  public:
    /** Cached stats, filling from `fill()` on the first call after an
     *  invalidation. */
    template <typename Fill>
    const TraceStats &get(Fill &&fill) const
    {
        if (!valid_) {
            stats_ = std::forward<Fill>(fill)();
            valid_ = true;
        }
        return stats_;
    }

    /** Drop the cached stats; the next get() refills. */
    void invalidate() const { valid_ = false; }

    /** True when get() would not call fill(). */
    bool valid() const { return valid_; }

  private:
    mutable TraceStats stats_;
    mutable bool valid_ = false;
};

/**
 * A table of LazyStatsSlot, one per row of a trace population (the
 * TraceArena form).  Value semantics: copying the owner copies
 * the cached stats and their validity wholesale.
 */
class LazyStatsTable
{
  public:
    LazyStatsTable() = default;

    explicit LazyStatsTable(std::size_t rows) : slots_(rows) {}

    /** Resize to `rows` slots, all invalid. */
    void reset(std::size_t rows) { slots_.assign(rows, LazyStatsSlot()); }

    std::size_t size() const { return slots_.size(); }

    /** Cached stats of row `i`, filling from `fill()` on demand. */
    template <typename Fill>
    const TraceStats &get(std::size_t i, Fill &&fill) const
    {
        SOSIM_REQUIRE(i < slots_.size(),
                      "LazyStatsTable: row index out of range");
        return slots_[i].get(std::forward<Fill>(fill));
    }

    /** Drop row i's cached stats (after external mutation). */
    void invalidate(std::size_t i) const
    {
        SOSIM_REQUIRE(i < slots_.size(),
                      "LazyStatsTable: row index out of range");
        slots_[i].invalidate();
    }

    /** True when row i's next get() would not call fill(). */
    bool valid(std::size_t i) const
    {
        SOSIM_REQUIRE(i < slots_.size(),
                      "LazyStatsTable: row index out of range");
        return slots_[i].valid();
    }

  private:
    std::vector<LazyStatsSlot> slots_;
};

} // namespace sosim::trace

#endif // SOSIM_TRACE_STATS_CACHE_H

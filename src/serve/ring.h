#ifndef SOSIM_SERVE_RING_H
#define SOSIM_SERVE_RING_H

/**
 * @file
 * Windowed streaming trace store: the ingestion half of the serve layer.
 *
 * Batch mode loads a whole week of traces at once; a serving system sees
 * one sample per instance per interval, arriving late, duplicated, or
 * not at all.  StreamRing keeps the most recent `window` ticks of every
 * instance in one flat slot array, laid out [instance][tick % window],
 * so it never reallocates and a snapshot of the trailing window is one
 * rotated copy per row.
 *
 * One record per fact: a slot holds NaN when no sample filled it.
 * ingest() rejects non-finite watts, so a stored sample is never NaN
 * and a non-NaN slot inside the window means a duplicate.  advanceTo()
 * writes NaN into each slot that leaves the window.
 *
 * Robustness contract (DESIGN.md section 14): ingest() never aborts.
 * Every sample is classified — accepted (on the frontier or late but
 * inside the window) or rejected with a reason (stale, future,
 * duplicate, non-finite, negative, unknown instance) — and rejects are
 * kept in a small quarantine ring for inspection.  The classification
 * counts are the only ingest counters; publishCounters() adds their
 * growth to the "serve.ingest.*" registry counters.  A silent sensor
 * simply leaves NaN slots behind, which the epoch snapshot hands to the
 * monitor's degraded-data path (trace/repair.h) exactly like the batch
 * pipeline.
 *
 * Threading: concurrent ingest() calls are safe for *distinct*
 * instances (each sample touches only its instance's slots;
 * classification counters are atomic and the quarantine ring is
 * mutex-guarded) — the chaos soak fans one tick's fleet out over
 * parallelFor workers.  Concurrent samples for the *same* instance,
 * advanceTo(), snapshotWindow(), publishCounters() and restoreState()
 * must be serialized by the caller, which the epoch-driven serve loop
 * does naturally.
 */

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "trace/time_series.h"

namespace sosim::serve {

/** How ingest() classified one sample. */
enum class IngestStatus : std::uint32_t {
    /** Stored; the sample's tick is the current frontier. */
    Accepted = 0,
    /** Stored, but the tick is behind the frontier (still in window). */
    AcceptedLate = 1,
    /** Rejected: the tick has already left the window. */
    RejectedStale = 2,
    /** Rejected: the tick is ahead of the frontier. */
    RejectedFuture = 3,
    /** Rejected: this (instance, tick) slot was already filled. */
    RejectedDuplicate = 4,
    /** Rejected: watts is NaN or infinite. */
    RejectedNonFinite = 5,
    /** Rejected: watts is negative. */
    RejectedNegative = 6,
    /** Rejected: the instance id is outside the fleet. */
    RejectedUnknownInstance = 7,
};

/** True for the two stored classifications. */
inline bool
ingestAccepted(IngestStatus s)
{
    return s == IngestStatus::Accepted || s == IngestStatus::AcceptedLate;
}

/** Printable classification name ("accepted", "rejected_stale", ...). */
std::string ingestStatusName(IngestStatus s);

/** One telemetry sample on the wire. */
struct Sample {
    /** Global tick index (tick * intervalMinutes = minutes since t0). */
    std::uint64_t tick = 0;
    /** Fleet instance index. */
    std::uint64_t instance = 0;
    /** Measured power draw. */
    double watts = 0.0;
};

/** A rejected sample plus why, as kept in the quarantine ring. */
struct QuarantinedSample {
    Sample sample;
    IngestStatus reason = IngestStatus::RejectedStale;
};

/**
 * A fixed-fleet ring buffer over the trailing `window` ticks of every
 * instance's telemetry, with per-sample validation.
 */
class StreamRing
{
  public:
    /** Quarantined rejects kept for inspection (newest wins). */
    static constexpr std::size_t kQuarantineCapacity = 64;

    /**
     * @param instances        Fleet size (instance ids are [0, n)).
     * @param window           Ticks retained per instance (>= 1).
     * @param interval_minutes Minutes between ticks.
     */
    StreamRing(std::size_t instances, std::size_t window,
               int interval_minutes);

    std::size_t instances() const { return instances_; }
    std::size_t window() const { return window_; }
    int intervalMinutes() const { return intervalMinutes_; }

    /**
     * The newest tick the ring accepts samples for.  Slots cover ticks
     * (frontier - window, frontier]; ticks at or below frontier - window
     * are stale, ticks above the frontier are future.
     */
    std::uint64_t frontier() const { return frontier_; }

    /**
     * Classify and (when accepted) store one sample.  Never throws on
     * malformed input — rejection is a return value, a counter and a
     * quarantine entry, and the ring's state is untouched.
     */
    IngestStatus ingest(const Sample &s);

    /**
     * Advance the frontier to `tick` (no-op when not ahead).  Each tick
     * stepped over evicts the slot that leaves the window: the slot
     * becomes an empty NaN awaiting that future tick's sample.
     */
    void advanceTo(std::uint64_t tick);

    /**
     * Materialize the completed window [frontier - window, frontier) of
     * every instance as owning TimeSeries, oldest sample first, NaN
     * where no sample arrived.  This is the epoch snapshot input: an
     * immutable copy that later ingests cannot touch.
     */
    std::vector<trace::TimeSeries> snapshotWindow() const;

    /**
     * Copy of the recent rejects, oldest first (bounded by
     * kQuarantineCapacity).  Writers must be quiesced for an exact
     * result — same contract as Registry::snapshot().
     */
    std::vector<QuarantinedSample> quarantined() const;

    /** Accepted samples (frontier + late) since construction/restore. */
    std::uint64_t acceptedCount() const;
    /** Late-but-accepted subset of acceptedCount(). */
    std::uint64_t lateCount() const;
    /** Rejected samples of one class. */
    std::uint64_t rejectedCount(IngestStatus reason) const;
    /** All rejected samples. */
    std::uint64_t rejectedTotal() const;

    /**
     * Add each classification count's growth since the last call (or
     * restore) to the registry counters "serve.ingest.accepted"
     * (frontier + late), "serve.ingest.late" and
     * "serve.ingest.<ingestStatusName>" for each rejection.  Only
     * counters that grew are touched.
     */
    void publishCounters();

    /**
     * Serialization surface for serve checkpoints: raw slot values and
     * the per-slot fill ticks, row-major [instance][slot], plus the
     * counters.  A fill tick is derived: the one tick in
     * (frontier - window, frontier] congruent to the slot for a filled
     * slot, ~0 for an empty one.  restoreState() is the exact inverse.
     * It returns false and leaves the ring untouched when the payload
     * is mis-sized or a fill tick disagrees with its slot (filled <=>
     * finite, >= 0 and at the derived tick).  Restoring sets the
     * published baseline to the restored counts, so registry totals
     * stay per-process.
     */
    const std::vector<double> &slotValues() const { return slots_; }
    std::vector<std::uint64_t> slotFillTicks() const;
    std::vector<std::uint64_t> counterValues() const;
    bool restoreState(std::uint64_t frontier,
                      const std::vector<double> &slot_values,
                      const std::vector<std::uint64_t> &slot_fill_ticks,
                      const std::vector<std::uint64_t> &counters);

  private:
    IngestStatus reject(const Sample &s, IngestStatus reason);

    std::size_t instances_ = 0;
    std::size_t window_ = 0;
    int intervalMinutes_ = 1;
    std::uint64_t frontier_ = 0;
    /** [instance][tick % window]; NaN = no sample. */
    std::vector<double> slots_;
    mutable std::mutex quarantineMutex_;
    std::deque<QuarantinedSample> quarantine_;
    /** Classification counts indexed by IngestStatus value. */
    std::array<std::atomic<std::uint64_t>, 8> counts_{};
    /** counts_ as of the last publishCounters() or restoreState(). */
    std::array<std::uint64_t, 8> published_{};
};

} // namespace sosim::serve

#endif // SOSIM_SERVE_RING_H

#ifndef SOSIM_SERVE_SERVICE_H
#define SOSIM_SERVE_SERVICE_H

/**
 * @file
 * The datacenter as a long-running service: the epoch/snapshot loop
 * that turns the streaming ring into monitor + remapper decisions.
 *
 * Lifecycle (DESIGN.md section 14):
 *
 *   ingest* -> advanceTo(tick) -> [epoch boundary: snapshot enqueued]
 *           -> processReadyEpochs() -> [measure -> judge -> act
 *                                       -> digest -> checkpoint]
 *
 * Every `epochTicks` ticks, advanceTo materializes the trailing window
 * as an immutable snapshot (owning TimeSeries copies, NaN where sensors
 * were silent) into a bounded queue, so scoring always reads a
 * consistent view while new samples keep landing in the ring.  When the
 * decision side falls behind and the queue is full, the *oldest*
 * pending snapshot is shed (freshest data wins) and counted under
 * "serve.epoch.shed" — ingest never blocks and never aborts.
 *
 * processReadyEpochs first publishes the ring's ingest counts to the
 * "serve.ingest.*" registry counters (StreamRing::publishCounters), then
 * drains the queue: each snapshot is measured with
 * core::measureWeek (whose degraded-data path handles the NaNs exactly
 * like the batch pipeline), judged by the FragmentationMonitor, and the
 * recommended action is executed on the snapshot measureWeek repaired
 * in place, with validity gating — Remap refines the live assignment,
 * Replace re-derives the placement.  A running FNV digest over every
 * processed epoch's observable outcome (ratio bits, action, degradation
 * tallies, swap count, assignment fingerprint) is the replay-equality
 * witness: an unbroken run and a kill/restore run that processed the
 * same epochs end with bit-identical digests, at any thread count.
 *
 * Crash safety: with a checkpoint directory configured, the service
 * commits its full state (ring, queue, assignment, monitor baseline,
 * digest, counters) after every processed epoch (serve/checkpoint.h);
 * restoreLatest() rewinds a fresh service to the last committed epoch,
 * after which the driver replays the deterministic feed from
 * ring().frontier() + 1.  A payload whose fields disagree with each
 * other or with the tree (mis-sized vectors, fill ticks that do not
 * match their slots, assignment entries that are not racks, a baseline
 * window the monitor could not hold, queued epochs out of order or off
 * their boundary tick) is refused before anything is mutated.
 */

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "core/placement.h"
#include "core/remap.h"
#include "power/power_tree.h"
#include "serve/ring.h"

namespace sosim::serve {

/** Serving-loop configuration. */
struct ServeConfig {
    /** Ticks retained per instance (the snapshot length). */
    std::size_t window = 48;
    /** Ticks between epoch snapshots. */
    std::size_t epochTicks = 24;
    /** Pending snapshots kept before shed-oldest kicks in (>= 1). */
    std::size_t maxEpochQueue = 4;
    /** Measurement + judgment knobs: level, baseline window, thresholds. */
    core::MonitorConfig monitor;
    /** Swap refinement executed on a Remap recommendation. */
    core::RemapConfig remap;
    /** Re-placement executed on a Replace recommendation. */
    core::PlacementConfig placement;
    /** Checkpoint directory; empty disables checkpointing. */
    std::string checkpointDir;
};

/** One pending immutable epoch snapshot. */
struct EpochSnapshot {
    /** 1-based epoch index (boundary tick / epochTicks). */
    std::uint64_t epoch = 0;
    /** Last tick the snapshot covers. */
    std::uint64_t lastTick = 0;
    /** The window, one owning series per instance, NaN = no sample. */
    std::vector<trace::TimeSeries> traces;
};

/** The outcome of one processed epoch. */
struct EpochResult {
    std::uint64_t epoch = 0;
    std::uint64_t lastTick = 0;
    core::MonitorObservation observation;
    /** Swaps accepted by a Remap action. */
    std::size_t swaps = 0;
    /** True when a Replace action re-derived the placement. */
    bool replaced = false;
};

/**
 * The serving loop state: ring + epoch queue + monitor + live
 * assignment + digest + checkpoints.
 */
class Service
{
  public:
    /**
     * @param tree             Power infrastructure (not owned).
     * @param service_of       Service id of every instance (placement
     *                         inputs for Replace actions).
     * @param initial          Starting placement.
     * @param interval_minutes Tick length.
     * @param config           Loop configuration.  Its monitor, remap
     *                         and placement configs are checked here,
     *                         not when an epoch first acts on them.
     */
    Service(const power::PowerTree &tree,
            std::vector<std::size_t> service_of,
            power::Assignment initial, int interval_minutes,
            ServeConfig config);

    /** Forwarded to StreamRing::ingest (same robustness contract and
     *  the same distinct-instance concurrency contract). */
    IngestStatus ingest(const Sample &s) { return ring_.ingest(s); }

    /**
     * Advance the stream clock; epoch boundaries crossed on the way
     * enqueue snapshots (shedding the oldest when the queue is full).
     * Serialized with ingest by the caller.
     */
    void advanceTo(std::uint64_t tick);

    /** Publish the ring's ingest counts, then drain the pending epoch
     *  queue; returns the processed results in epoch order. */
    std::vector<EpochResult> processReadyEpochs();

    const StreamRing &ring() const { return ring_; }
    const power::Assignment &assignment() const { return assignment_; }
    const ServeConfig &config() const { return config_; }

    /** Pending snapshots (backpressure depth). */
    std::size_t queueDepth() const { return queue_.size(); }
    /** Snapshots shed under backpressure since construction/restore. */
    std::uint64_t shedCount() const { return shed_; }
    /** Last epoch processed (0 = none yet). */
    std::uint64_t committedEpoch() const { return committedEpoch_; }

    /** Running replay-equality digest over every processed epoch. */
    std::uint64_t digest() const { return digest_; }

    /** Configuration/topology fingerprint that checkpoint files are
     *  tied to. */
    std::uint64_t shapeFingerprint() const { return shapeFp_; }

    /**
     * Rewind to the newest valid checkpoint in config().checkpointDir.
     * Returns false (leaving the service untouched) when no usable
     * checkpoint exists or its payload is malformed; on success the
     * driver must replay the feed from ring().frontier() + 1.
     */
    bool restoreLatest();

  private:
    EpochResult processEpoch(EpochSnapshot snapshot);
    void writeCheckpoint();
    std::uint64_t computeShapeFingerprint() const;

    const power::PowerTree &tree_;
    std::vector<std::size_t> serviceOf_;
    ServeConfig config_;
    StreamRing ring_;
    core::FragmentationMonitor monitor_;
    core::Remapper remapper_;
    core::PlacementEngine placer_;
    power::Assignment assignment_;
    std::deque<EpochSnapshot> queue_;
    std::uint64_t shed_ = 0;
    std::uint64_t committedEpoch_ = 0;
    std::uint64_t digest_;
    std::uint64_t shapeFp_ = 0;
};

} // namespace sosim::serve

#endif // SOSIM_SERVE_SERVICE_H

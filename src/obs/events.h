#ifndef SOSIM_OBS_EVENTS_H
#define SOSIM_OBS_EVENTS_H

/**
 * @file
 * Flight recorder: a bounded, lock-cheap journal of structured decision
 * events (DESIGN.md section 12).
 *
 * Counters and spans (obs/metrics.h, obs/span.h) answer *aggregate*
 * questions — how many swaps, how much busy time.  The flight recorder
 * answers *causal* ones: why was instance 17 swapped, why was week 2
 * flagged degraded, why did this graph op re-execute.  Decision sites
 * emit fixed-size Event records through the SOSIM_EVENT* macros in
 * obs/obs.h; sinks (obs/trace_export.h) turn the drained buffer into a
 * JSONL journal, a Chrome-trace timeline, or a `sosim explain` history.
 *
 * Design, mirroring the metrics registry:
 *   - Per-thread ring buffers: writers append to the shard selected by
 *     threadShard(), so concurrent parallelFor workers almost never
 *     contend (each shard's mutex is effectively thread-private until
 *     more than kShards threads exist).
 *   - Bounded memory: each shard holds at most kCapacity events; when
 *     full, the oldest event in that shard is overwritten and a drop
 *     counter increments.  Nothing ever blocks on a full buffer.
 *   - Idle by default: recording starts only when a sink is requested
 *     (--flight-record / --chrome-trace).  The compiled-but-idle cost
 *     of an instrumented site is one relaxed load and a branch, and the
 *     macros do not evaluate their payload until recording starts.
 *
 * Causality: every event carries the id (sequence number) of the scope
 * event that was current on its thread when it was recorded.  Scopes
 * are opened with SOSIM_EVENT_SCOPE.  The current scope and the current
 * span (obs/span.h) are the two fields of one per-thread ThreadContext,
 * and util::parallelFor adopts the submitting thread's context in its
 * worker chunks (ScopedContextAdopt), so decisions made on pool workers
 * chain to the stage that submitted the fan-out.
 *
 * Timestamps: events carry steady-clock nanoseconds since the epoch
 * captured when recording was enabled; the matching wall-clock epoch is
 * stored alongside so exporters can render absolute times.  When fake
 * time is active (obs::setFakeTime / SOSIM_FAKE_TIME) the recorder
 * stamps synthetic, sequence-derived times instead, which makes journal
 * goldens byte-stable.
 */

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace sosim::obs {

struct SpanNode; // span.h; events.h must not depend on it.

/** What kind of decision an Event records. */
enum class EventKind : std::uint8_t {
    None = 0,
    /** A closed span (label = "a/b/c" span path, b = duration ns). */
    Span,
    /** A generic causal scope opened by SOSIM_EVENT_SCOPE. */
    Scope,
    /** Remap accepted a swap (a/b = instances, c/d = racks). */
    SwapAccept,
    /** Remap rejected a pairing (code = RejectReason). */
    SwapReject,
    /** One monitor week ingested (a = week, b = action). */
    MonitorWeek,
    /** An instance excluded from decisions for low validity. */
    MonitorExclude,
    /** One scheduled fault applied (code = FaultEventCode). */
    FaultInject,
    /** One trace repaired after injection (a = instance). */
    FaultRepair,
    /** A graph op body executed (a = node signature). */
    GraphEval,
    /** A graph op served from cache (a = node signature). */
    GraphCacheHit,
    /** Serve ingest rejected a sample (code = serve::IngestStatus,
     *  label = serve::ingestStatusName). */
    IngestReject,
    /** One serve epoch processed (a = epoch, c = action). */
    EpochCommit,
    /** A pending epoch snapshot shed under backpressure (a = epoch). */
    EpochShed,
    /** A serve checkpoint committed (a = epoch, b = bytes). */
    CheckpointWrite,
    /** Serve state restored from a checkpoint (a = epoch). */
    CheckpointRestore,
};

/** Why remap rejected a candidate pairing (Event::code). */
enum class RejectReason : std::uint32_t {
    /** Failed the improve-at-A test (the early-reject kernel path). */
    EarlyReject = 1,
    /** Instance validity below trace::kMinValidFraction. */
    ValidityGate = 2,
    /** Passed at A but failed improve-at-B, or the round found no
     *  positive-gain swap at all. */
    NoImprovement = 3,
    /** Skipped before any kernel pass: the partner's embedding cluster
     *  is outside the candidate's allowed set (RemapConfig::prune). */
    Pruned = 4,
};

/** Which scheduled fault a FaultInject event applied (Event::code). */
enum class FaultEventCode : std::uint32_t {
    ClockSkew = 1,
    StuckSensor = 2,
    Gap = 3,
    TraceLoss = 4,
    BreakerTrip = 5,
};

/**
 * One recorded decision event.  Fixed-size POD: the u64/double payload
 * fields are kind-specific (see trace_export.cc's renderer for the
 * schema of each kind); `name` is an id interned by the recorder.
 */
struct Event {
    /** Unique 1-based sequence number.  Allocated to threads in small
     *  blocks (store()), so it is monotonic within a thread but only
     *  block-approximate across threads; single-threaded runs assign
     *  contiguous values.  Timeline ordering uses steadyNanos. */
    std::uint64_t seq = 0;
    /** seq of the enclosing scope event (0 = no enclosing scope). */
    std::uint64_t parent = 0;
    /** Steady-clock ns since the recorder epoch (synthetic under fake
     *  time: seq * 1000). */
    std::uint64_t steadyNanos = 0;
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
    double x = 0.0, y = 0.0, z = 0.0;
    /** Interned label id (0 = unlabeled); see EventRecorder::labelOf. */
    std::uint32_t name = 0;
    /** Kind-specific sub-code (RejectReason, FaultEventCode, ...). */
    std::uint32_t code = 0;
    EventKind kind = EventKind::None;
    /** Recording thread's shard slot (threadShard()). */
    std::uint16_t thread = 0;
};

/**
 * What EventRecorder::collect() returns: the buffered events and the
 * recorder's drop/record totals, read in the same pass.  A journal
 * written from a snapshot reports the totals of that snapshot, however
 * much is recorded after it was taken.
 */
struct EventSnapshot {
    /** Buffered events, sorted by sequence number. */
    std::vector<Event> events;
    /** Events evicted by ring wrap before the snapshot. */
    std::uint64_t dropped = 0;
    /** Events stored before the snapshot. */
    std::uint64_t recorded = 0;
};

/**
 * Call-site payload for SOSIM_EVENT / SOSIM_EVENT_SCOPE.  Designated
 * initializers keep sites readable: SOSIM_EVENT(.kind = ..., .a = ...).
 * `label` is interned only when the recorder is enabled, so sites may
 * pass dynamic names without paying for them while idle.
 */
struct EventData {
    EventKind kind = EventKind::None;
    std::uint32_t code = 0;
    std::string_view label{};
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
    double x = 0.0, y = 0.0, z = 0.0;
};

/**
 * The process-wide flight recorder: kShards ring buffers plus the
 * label intern table and the monotonic sequence source.
 */
class EventRecorder
{
  public:
    /**
     * Ring capacity per shard (events, not bytes).  A full report emits
     * tens of thousands of decisions, so the rings hold 65536 each;
     * memory stays bounded because shards grow lazily and only when
     * written to.
     */
    static constexpr std::size_t kCapacity = std::size_t{1} << 16U;

    static EventRecorder &instance();

    /** One relaxed load: the record() fast-path gate. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Start/stop recording.  Enabling captures the steady/wall epoch
     * pair that timestamps are measured against; buffered events are
     * kept (drain() or reset() to discard).
     */
    void setEnabled(bool on);

    /** record()'s default timestamp: stamp the event when it is stored. */
    static constexpr std::uint64_t kStampNow = ~std::uint64_t{0};

    /**
     * Append one event, chained to the thread's current scope, and
     * return its sequence number (0 while disabled: nothing is stored).
     * `steady_nanos` overrides the timestamp — span journaling passes
     * the slice's start, which precedes the record.  Fake time
     * overrides both.
     */
    std::uint64_t record(const EventData &d,
                         std::uint64_t steady_nanos = kStampNow) noexcept;

    /** Events evicted by ring wrap since the last reset(). */
    std::uint64_t dropped() const;

    /** Events successfully stored since the last reset(). */
    std::uint64_t recorded() const;

    /**
     * Snapshot every shard: its events, sorted by sequence number, and
     * the drop/record totals.  `clear` also empties the rings (the
     * totals are kept).  Callers must have quiesced writers for an
     * exact result — same contract as Registry::snapshot().
     */
    EventSnapshot collect(bool clear = false);

    /** Drop buffered events, zero the drop/record totals, and rewind
     *  the sequence counter (tests and golden replays). */
    void reset();

    /** Intern a label, returning its stable non-zero id. */
    std::uint32_t internLabel(std::string_view label);

    /** The label for an interned id ("" for 0 / unknown ids). */
    std::string labelOf(std::uint32_t id) const;

    /** Steady epoch captured by the last setEnabled(true). */
    std::chrono::steady_clock::time_point steadyEpoch() const;

    /** Wall-clock epoch ("YYYY-MM-DDTHH:MM:SSZ") captured with it. */
    std::string wallEpoch() const;

    EventRecorder(const EventRecorder &) = delete;
    EventRecorder &operator=(const EventRecorder &) = delete;

  private:
    EventRecorder() = default;

    /** One ring buffer; effectively thread-private until more than
     *  kShards threads record at once. */
    struct alignas(64) Shard {
        mutable std::mutex mutex;
        std::vector<Event> ring;
        /** Next write position once the ring has grown to capacity. */
        std::size_t head = 0;
        std::uint64_t dropped = 0;
        std::uint64_t recorded = 0;
    };

    /** Stamp, sequence, and buffer one event; returns its seq. */
    std::uint64_t store(Event e, std::uint64_t steady_nanos) noexcept;

    /** Draw the next seq from a per-thread block (see events.cc). */
    std::uint64_t nextSeqLocal() noexcept;

    std::array<Shard, kShards> shards_;
    std::atomic<std::uint64_t> nextSeq_{1};
    /** Bumped by reset() to invalidate per-thread seq blocks. */
    std::atomic<std::uint64_t> seqGeneration_{0};
    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point steadyEpoch_{};
    std::string wallEpoch_;
    mutable std::mutex labelMutex_;
    std::vector<std::string> labels_;
    std::map<std::string, std::uint32_t, std::less<>> labelIds_;
};

/** Where the calling thread stands: what new spans and events nest in. */
struct ThreadContext {
    /** The span the next ScopedSpan nests under (nullptr = the root). */
    SpanNode *span = nullptr;
    /** seq of the current causal scope event (0 = none). */
    std::uint64_t scope = 0;
};

/** The calling thread's context. */
ThreadContext &threadContext();

/**
 * RAII causal scope: records `d` as a scope event and makes its id the
 * thread's current scope, so events recorded inside chain to it; the
 * previous scope is restored on exit.  While the recorder is disabled
 * this is a no-op that leaves the current scope untouched.
 */
class ScopedEventScope
{
  public:
    explicit ScopedEventScope(const EventData &d)
        : id_(EventRecorder::instance().record(d))
    {
        if (id_ != 0)
            prev_ = std::exchange(threadContext().scope, id_);
    }

    ~ScopedEventScope()
    {
        if (id_ != 0)
            threadContext().scope = prev_;
    }

    ScopedEventScope(const ScopedEventScope &) = delete;
    ScopedEventScope &operator=(const ScopedEventScope &) = delete;

  private:
    std::uint64_t id_;
    std::uint64_t prev_ = 0;
};

/**
 * Adopt another thread's context for a scope.  util::parallelFor wraps
 * every worker chunk in one of these, passing the submitting thread's
 * context, which is what attaches worker-side spans and decisions
 * under the submitting stage.
 */
class ScopedContextAdopt
{
  public:
    explicit ScopedContextAdopt(const ThreadContext &submitter)
        : prev_(std::exchange(threadContext(), submitter))
    {}

    ~ScopedContextAdopt() { threadContext() = prev_; }

    ScopedContextAdopt(const ScopedContextAdopt &) = delete;
    ScopedContextAdopt &operator=(const ScopedContextAdopt &) = delete;

  private:
    ThreadContext prev_;
};

/**
 * Journal one closed span (called from ~ScopedSpan; a no-op while the
 * recorder is idle): kind Span, label = the span's "a/b/c" path,
 * interned like every scope label, b = duration ns, timestamped at
 * `start`.
 */
void recordSpanEvent(std::string_view path,
                     std::chrono::steady_clock::time_point start,
                     std::uint64_t duration_nanos) noexcept;

} // namespace sosim::obs

#endif // SOSIM_OBS_EVENTS_H

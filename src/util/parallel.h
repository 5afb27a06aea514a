#ifndef SOSIM_UTIL_PARALLEL_H
#define SOSIM_UTIL_PARALLEL_H

/**
 * @file
 * Deterministic data-parallel fan-out over a lazily-created thread pool.
 *
 * parallelFor(n, fn) invokes fn(i) for every i in [0, n), partitioned
 * into contiguous chunks across the pool's worker threads.  Determinism
 * contract: callers write results into per-index slots (out[i] = ...), so
 * the outcome is independent of thread count and scheduling; every
 * reduction in this library happens serially, in index order, after the
 * fan-out returns.  With that discipline, parallel and serial runs are
 * bit-identical — tests/test_parallel.cc pins this for the scoring,
 * k-means, placement, remap and trace-generation paths.
 *
 * The pool is created on first use.  Thread count resolution order:
 * setThreadCount() override > SOSIM_THREADS environment variable >
 * std::thread::hardware_concurrency().  A count of 1 (or tiny n) runs
 * inline with zero overhead.  Nested parallelFor calls from inside a
 * worker run inline serially, so library layers can fan out without
 * worrying about composition or deadlock.
 */

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>

namespace sosim::util {

/**
 * Raised when a parallelFor body throws from a pooled worker: wraps the
 * original exception's message and carries the failing chunk's index
 * range so the caller can tell *which* slice of the loop died.  Derives
 * from std::runtime_error, so handlers of the unwrapped exception class
 * hierarchy keep working.  Every failure also increments the
 * "pool.worker_exceptions" obs counter.  (The inline path — one thread,
 * tiny n, or a nested call — rethrows the original exception untouched;
 * there is no worker to attribute a range to.)
 *
 * Also thrown when the pool watchdog fires (see setPoolWatchdogMillis):
 * a chunk that blocks forever inside a background worker would otherwise
 * deadlock the submitting thread in its completion wait.  The error then
 * carries the stuck chunk's range and the wedged pool is retired.
 */
class ParallelForError : public std::runtime_error
{
  public:
    ParallelForError(std::size_t begin, std::size_t end,
                     const std::string &what)
        : std::runtime_error("parallelFor: body failed in index range [" +
                             std::to_string(begin) + ", " +
                             std::to_string(end) + "): " + what),
          begin_(begin), end_(end)
    {}

    /** First index of the failing chunk. */
    std::size_t rangeBegin() const { return begin_; }
    /** One past the last index of the failing chunk. */
    std::size_t rangeEnd() const { return end_; }

  private:
    std::size_t begin_;
    std::size_t end_;
};

/** Most worker threads a count may request. */
inline constexpr std::size_t kMaxThreads = 1024;

/**
 * Effective worker count used by parallelFor: the setThreadCount()
 * override if set, else SOSIM_THREADS from the environment (parsed whole;
 * set to anything but an integer in [1, kMaxThreads] is a FatalError
 * naming it), else hardware concurrency (at least 1).
 */
std::size_t threadCount();

/**
 * Override the worker count (0 restores automatic resolution; above
 * kMaxThreads is a FatalError).  Resizes the pool on the next
 * parallelFor; not safe to call concurrently with parallelFor.
 */
void setThreadCount(std::size_t n);

/**
 * Watchdog deadline for pooled fan-outs, in milliseconds: when no chunk
 * completes for this long while the submitting thread is waiting on the
 * pool, the job is abandoned and parallelFor throws a ParallelForError
 * naming the stuck chunk's index range instead of hanging forever (the
 * wedged pool is retired; the next parallelFor gets a fresh one).  The
 * deadline is progress-based — it resets every time any chunk finishes —
 * so long jobs never fire it as long as the pool keeps moving.
 *
 * Resolution order: this override (0 restores automatic resolution) >
 * the SOSIM_POOL_WATCHDOG_MS environment variable (an integer >= 1;
 * anything else set is a FatalError naming it, raised by every
 * parallelFor outside a pool worker, inline or not) > 120000 (2 minutes).
 */
void setPoolWatchdogMillis(std::size_t ms);

/** Tuning knobs of parallelFor; the defaults suit most loops. */
struct ParallelForOptions {
    /** Run inline serially when n < minGrain (fan-out overhead would
     *  dominate tiny loops). */
    std::size_t minGrain = 2;
    /**
     * Number of contiguous chunks to split [0, n) into; 0 (default)
     * uses one chunk per pool lane.  Chunks are claimed dynamically by
     * whichever lane is free, so oversubscribing (chunks > lanes) load-
     * balances *uneven* per-index work — e.g. remap's (candidate,
     * rack) scan, whose cost varies with rack occupancy — at the price
     * of one atomic claim per chunk.  Results are independent of the chunk
     * count (the determinism contract is per-index slot writes).
     */
    std::size_t chunks = 0;
};

/**
 * Run body(i) for every i in [0, n), fanned out across the pool in
 * contiguous chunks.  Blocks until every index completed.  Exceptions
 * thrown by the body are captured and the one from the lowest chunk is
 * reported after all workers finish (so failure is deterministic too):
 * pooled failures are rethrown as ParallelForError carrying the failing
 * index range; the inline path rethrows the original exception.
 *
 * Observability: pool fan-outs record job/chunk counters and per-lane
 * busy time under the "pool.*" metrics, and the submitting thread's
 * obs::ThreadContext (current span and causal scope) is adopted inside
 * every worker chunk through obs::ScopedContextAdopt, so SOSIM_SPANs
 * and flight-recorder events emitted by the body attach under the
 * submitting stage (obs/events.h).
 *
 * @param n       Iteration count.
 * @param body    Callback; must be safe to invoke concurrently for
 *                distinct indices and must not touch another index's
 *                output slot.
 * @param options Inline threshold and chunk count (see
 *                ParallelForOptions).
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &body,
                 const ParallelForOptions &options = {});

} // namespace sosim::util

#endif // SOSIM_UTIL_PARALLEL_H

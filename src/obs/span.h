#ifndef SOSIM_OBS_SPAN_H
#define SOSIM_OBS_SPAN_H

/**
 * @file
 * Scoped span tracing: a process-wide tree of named pipeline stages with
 * per-node invocation counts and accumulated busy time.
 *
 * A span is opened with the RAII `SOSIM_SPAN("stage.name")` macro
 * (obs/obs.h) and becomes a child of the thread's current span; nesting
 * follows the dynamic call structure, so the tree reads like a sampled
 * call graph of the pipeline (placement -> kmeans -> ...).
 *
 * Thread-pool propagation: the current span is the `span` field of the
 * per-thread obs::ThreadContext (obs/events.h).  util::parallelFor
 * captures the submitting thread's context and adopts it inside every
 * worker chunk (ScopedContextAdopt), so spans opened on worker threads
 * attach under the span that submitted the work rather than under
 * detached per-thread roots.  Because several workers can be inside the
 * same node at once, a node's busy time is *aggregate thread time*,
 * which can exceed wall time — that is the signal (parallel speedup
 * shows up as busy/wall).
 *
 * Concurrency: node lookup/creation takes one tracer mutex (spans are
 * stage-grained, entered at most a few thousand times per run); the
 * per-node accumulation on exit is relaxed atomics only.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/events.h" // ThreadContext; events.h never includes span.h

namespace sosim::obs {

/**
 * One node of the span tree.  Nodes live until SpanTracer::reset(),
 * which destroys every node below the root; journaled span events carry
 * the node's path, never the node, so they outlive it.
 */
struct SpanNode {
    SpanNode(std::string n, const SpanNode *p)
        : name(std::move(n)), parent(p),
          path(p == nullptr      ? std::string()
               : p->path.empty() ? name
                                 : p->path + "/" + name)
    {}

    std::string name;
    const SpanNode *parent = nullptr;
    /** "a/b/c" from the top-level stage down ("" for the root). */
    std::string path;
    /** Times this span was entered. */
    std::atomic<std::uint64_t> invocations{0};
    /** Accumulated busy nanoseconds (sums across concurrent threads). */
    std::atomic<std::uint64_t> totalNanos{0};
    /** Children keyed by name (sorted — exporters iterate in order). */
    std::map<std::string, std::unique_ptr<SpanNode>> children;
};

/** The process-wide span tree. */
class SpanTracer
{
  public:
    /** The process-wide tracer. */
    static SpanTracer &instance();

    /**
     * Find or create `name` under `parent` (nullptr = tree root).
     * Mutex-protected; the returned node lives until reset().
     */
    SpanNode *childOf(SpanNode *parent, const std::string &name);

    /** The synthetic root; its children are the top-level stages. */
    const SpanNode &root() const { return root_; }

    /**
     * Drop every recorded span (for tests / fresh scrapes).  Callers
     * must have quiesced: no ScopedSpan may be live anywhere.
     */
    void reset();

  private:
    SpanTracer() = default;

    mutable std::mutex mutex_;
    SpanNode root_{"root", nullptr};
};

/**
 * RAII span: on construction becomes the thread's current span (as a
 * child of the previous current span); on destruction accumulates
 * elapsed wall time into the node and restores the previous span.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const std::string &name)
        : prev_(threadContext().span),
          node_(SpanTracer::instance().childOf(prev_, name)),
          start_(std::chrono::steady_clock::now())
    {
        threadContext().span = node_;
    }

    ~ScopedSpan()
    {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        const auto nanos = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count());
        node_->invocations.fetch_add(1, std::memory_order_relaxed);
        node_->totalNanos.fetch_add(nanos, std::memory_order_relaxed);
        // Journal the closed slice so the Chrome-trace export has a
        // timeline, not just aggregates (no-op while the recorder is
        // idle; spans are stage-grained, so this stays off hot paths).
        recordSpanEvent(node_->path, start_, nanos);
        threadContext().span = prev_;
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanNode *prev_;
    SpanNode *node_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace sosim::obs

#endif // SOSIM_OBS_SPAN_H

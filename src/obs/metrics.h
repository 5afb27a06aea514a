#ifndef SOSIM_OBS_METRICS_H
#define SOSIM_OBS_METRICS_H

/**
 * @file
 * Lock-cheap metrics registry: Counter, Gauge, Histogram.
 *
 * Design goals (DESIGN.md section 8):
 *   - Hot-path updates are one relaxed atomic RMW on a cache-line-padded
 *     shard selected by a thread-local slot, so concurrent writers from
 *     util::parallelFor workers almost never contend.
 *   - Metric objects are created once through the Registry and live for
 *     the process; call sites cache a `static Counter &` reference (the
 *     SOSIM_COUNT* macros in obs/obs.h do this), so steady-state cost is
 *     the increment alone — no name lookup, no lock.
 *   - Reads (value(), Registry::snapshot()) aggregate the shards.  They
 *     are exact once writers have quiesced (every parallelFor blocks
 *     until its workers finish) and approximate while racing, which is
 *     fine for a scrape.
 *   - Registry::resetValues() zeroes every metric but never destroys
 *     one, so cached references stay valid across test cases.
 *
 * Library code reaches these classes through the instrumentation macros
 * in obs/obs.h, which every build compiles in.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sosim::obs {

/** Number of update shards per metric; a small power of two. */
inline constexpr std::size_t kShards = 16;

/** Monotonically growing thread-slot source for shard selection. */
inline std::atomic<std::size_t> g_nextThreadSlot{0};

/**
 * Stable per-thread shard index in [0, kShards).  Distinct threads map
 * to distinct slots until kShards threads exist; after that slots are
 * shared round-robin (still correct, just more contention).
 */
inline std::size_t
threadShard()
{
    thread_local const std::size_t slot =
        g_nextThreadSlot.fetch_add(1, std::memory_order_relaxed) % kShards;
    return slot;
}

/**
 * Monotonic event counter.  add() is a relaxed fetch_add on the calling
 * thread's shard; value() sums the shards.
 */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void add(std::uint64_t delta) noexcept
    {
        shards_[threadShard()].v.fetch_add(delta,
                                           std::memory_order_relaxed);
    }

    void inc() noexcept { add(1); }

    /** Sum of all shards (exact once writers quiesced). */
    std::uint64_t value() const noexcept
    {
        std::uint64_t total = 0;
        for (const auto &s : shards_)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

    /** Zero every shard (for tests; callers must have quiesced). */
    void reset() noexcept
    {
        for (auto &s : shards_)
            s.v.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Shard {
        std::atomic<std::uint64_t> v{0};
    };
    std::array<Shard, kShards> shards_;
};

/**
 * Last-write-wins instantaneous value (a level, a ratio, a temperature).
 * set() is a relaxed store.
 */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void set(double v) noexcept
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() noexcept { set(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/** Aggregated histogram state returned by Histogram::snapshot(). */
struct HistogramSnapshot {
    /** Per-bucket occupancy, index-aligned with histogramBounds(); the
     *  last bucket is the +Inf overflow bucket. */
    std::vector<std::uint64_t> bucketCounts;
    /** Total number of observations. */
    std::uint64_t count = 0;
    /** Sum of observed values. */
    double sum = 0.0;
};

/**
 * The fixed log-scale bucket upper bounds shared by every histogram:
 * {1, 2, 5} x 10^e for e in [-9, 8], i.e. 1e-9 .. 5e8, 54 bounds.  A
 * value v lands in the first bucket whose bound satisfies v <= bound
 * (Prometheus `le` semantics); values above 5e8 (and NaN) land in the
 * final +Inf bucket.  One fixed layout keeps exporters and golden tests
 * trivial and covers nanoseconds-to-years when observing seconds.
 */
const std::vector<double> &histogramBounds();

/**
 * Fixed-bucket log-scale histogram.  observe() is a bucket search (a
 * ~6-step binary search over 54 bounds) plus relaxed RMWs on the
 * caller's shard.
 */
class Histogram
{
  public:
    /** 54 finite bounds + 1 overflow bucket. */
    static constexpr std::size_t kBuckets = 55;

    Histogram() = default;
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void observe(double v) noexcept;

    /** Aggregate the shards into one snapshot. */
    HistogramSnapshot snapshot() const;

    void reset() noexcept;

  private:
    struct alignas(64) Shard {
        std::array<std::atomic<std::uint64_t>, kBuckets> counts{};
        std::atomic<double> sum{0.0};
        std::atomic<std::uint64_t> count{0};
    };
    std::array<Shard, kShards> shards_;
};

/** One scraped metric value (snapshot rows are sorted by name). */
struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
};
struct GaugeSample {
    std::string name;
    double value = 0.0;
};
struct HistogramSample {
    std::string name;
    HistogramSnapshot data;
};

/** A consistent-enough scrape of the whole registry. */
struct MetricsSnapshot {
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;
};

/**
 * Process-wide metric directory.  Lookup is mutex-protected and
 * intended to run once per call site (cache the returned reference);
 * returned references stay valid for the process lifetime —
 * resetValues() zeroes metrics but never removes them.
 */
class Registry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Scrape everything, rows sorted by metric name. */
    MetricsSnapshot snapshot() const;

    /** Zero every registered metric (references stay valid). */
    void resetValues();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** The process-wide registry. */
Registry &registry();

} // namespace sosim::obs

#endif // SOSIM_OBS_METRICS_H

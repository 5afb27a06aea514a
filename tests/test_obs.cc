/**
 * @file
 * Tests for the observability layer (src/obs/): sharded metrics under
 * concurrent parallelFor writers, span nesting across thread-pool
 * boundaries, golden JSON / Prometheus exports, and the ParallelForError
 * failure-range report from util::parallelFor.
 *
 * The golden tests build an explicit MetricsSnapshot and SpanNode tree
 * (never the global registry, which other tests may touch) with a fixed
 * label and timestamp, so the expected byte-for-byte output is stable.
 */

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "core/monitor.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/trace_export.h"
#include "power/power_tree.h"
#include "util/parallel.h"
#include "workload/catalog.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

/** Force a specific worker count for the duration of a scope. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(std::size_t n) { util::setThreadCount(n); }
    ~ScopedThreads() { util::setThreadCount(0); }
};

TEST(Metrics, CounterBasics)
{
    auto &c = obs::registry().counter("test.counter_basics");
    c.reset();
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSetAndAdd)
{
    auto &g = obs::registry().gauge("test.gauge_basics");
    g.reset();
    g.set(1.5);
    EXPECT_DOUBLE_EQ(g.value(), 1.5);
    g.set(-3.0);
    EXPECT_DOUBLE_EQ(g.value(), -3.0);
}

TEST(Metrics, RegistryReturnsSameInstanceAndSurvivesReset)
{
    auto &a = obs::registry().counter("test.registry_stable");
    auto &b = obs::registry().counter("test.registry_stable");
    EXPECT_EQ(&a, &b);
    a.add(7);
    obs::registry().resetValues();
    // The reference is still the live metric after a value reset.
    EXPECT_EQ(b.value(), 0u);
    b.inc();
    EXPECT_EQ(a.value(), 1u);
}

TEST(Metrics, HistogramBucketSemantics)
{
    const auto &bounds = obs::histogramBounds();
    ASSERT_EQ(bounds.size() + 1, obs::Histogram::kBuckets);
    ASSERT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));

    auto &h = obs::registry().histogram("test.hist_semantics");
    h.reset();
    h.observe(1.0);   // `le` semantics: lands exactly on the 1.0 bound.
    h.observe(1.001); // Just above: next bucket (2.0).
    h.observe(6e8);   // Above the largest bound: overflow.
    h.observe(std::numeric_limits<double>::quiet_NaN()); // Overflow too.
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 4u);

    const auto bucket_of = [&](double bound) {
        const auto it =
            std::find(bounds.begin(), bounds.end(), bound);
        EXPECT_NE(it, bounds.end());
        return static_cast<std::size_t>(it - bounds.begin());
    };
    EXPECT_EQ(snap.bucketCounts[bucket_of(1.0)], 1u);
    EXPECT_EQ(snap.bucketCounts[bucket_of(2.0)], 1u);
    EXPECT_EQ(snap.bucketCounts[bounds.size()], 2u);
}

TEST(Metrics, ConcurrentCounterMatchesSerialSum)
{
    auto &c = obs::registry().counter("test.concurrent_counter");
    c.reset();
    constexpr std::size_t n = 20000;
    {
        ScopedThreads guard(8);
        util::parallelFor(n, [&](std::size_t i) { c.add(i % 7 + 1); });
    }
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < n; ++i)
        expected += i % 7 + 1;
    EXPECT_EQ(c.value(), expected);
}

TEST(Metrics, ConcurrentHistogramMatchesSerialFill)
{
    // Integer-valued observations keep the double sum order-independent,
    // so concurrent and serial fills agree exactly.
    constexpr std::size_t n = 20000;
    const auto value_of = [](std::size_t i) {
        return static_cast<double>(i % 10 + 1);
    };

    auto &concurrent = obs::registry().histogram("test.hist_concurrent");
    auto &serial = obs::registry().histogram("test.hist_serial");
    concurrent.reset();
    serial.reset();
    {
        ScopedThreads guard(8);
        util::parallelFor(
            n, [&](std::size_t i) { concurrent.observe(value_of(i)); });
    }
    for (std::size_t i = 0; i < n; ++i)
        serial.observe(value_of(i));

    const auto got = concurrent.snapshot();
    const auto want = serial.snapshot();
    EXPECT_EQ(got.count, want.count);
    EXPECT_DOUBLE_EQ(got.sum, want.sum);
    EXPECT_EQ(got.bucketCounts, want.bucketCounts);
}

TEST(Spans, NestAcrossPoolBoundaries)
{
    auto &tracer = obs::SpanTracer::instance();
    tracer.reset();
    {
        ScopedThreads guard(4);
        obs::ScopedSpan outer("test.outer");
        util::parallelFor(64, [&](std::size_t) {
            obs::ScopedSpan inner("test.inner");
            (void)inner;
        });
    }
    const auto &root = tracer.root();
    ASSERT_EQ(root.children.count("test.outer"), 1u);
    const auto &outer = *root.children.at("test.outer");
    EXPECT_EQ(outer.invocations.load(), 1u);
    // Worker-side spans attached under the submitting span, not under
    // detached per-thread roots.
    ASSERT_EQ(outer.children.count("test.inner"), 1u);
    EXPECT_EQ(outer.children.at("test.inner")->invocations.load(), 64u);
    EXPECT_EQ(root.children.size(), 1u);
    tracer.reset();
}

TEST(Spans, MacroRecordsInvocationsAndRestoresCurrent)
{
    auto &tracer = obs::SpanTracer::instance();
    tracer.reset();
    EXPECT_EQ(obs::threadContext().span, nullptr);
    for (int i = 0; i < 3; ++i) {
        SOSIM_SPAN("test.macro_span");
        EXPECT_NE(obs::threadContext().span, nullptr);
    }
    EXPECT_EQ(obs::threadContext().span, nullptr);
    const auto &root = tracer.root();
    ASSERT_EQ(root.children.count("test.macro_span"), 1u);
    EXPECT_EQ(root.children.at("test.macro_span")->invocations.load(), 3u);
    tracer.reset();
}

TEST(Monitor, RecordsEvalLatency)
{
    workload::DatacenterSpec spec;
    spec.name = "obs-monitor";
    spec.topology.suites = 1;
    spec.topology.msbsPerSuite = 1;
    spec.topology.sbsPerMsb = 1;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = 60;
    spec.weeks = 1;
    spec.seed = 5;
    spec.services.push_back({workload::webFrontend(), 8});
    const auto dc = workload::generate(spec);
    power::PowerTree tree(spec.topology);
    std::vector<std::size_t> service_of(dc.instanceCount(), 0);
    const auto assignment =
        baseline::obliviousPlacement(tree, service_of);

    auto &latency =
        obs::registry().histogram("monitor.observe_seconds");
    const auto before = latency.snapshot().count;
    core::FragmentationMonitor monitor(tree);
    const auto obs = monitor.observeWeek(dc.trainingTraces(), assignment);
    EXPECT_GE(obs.evalSeconds, 0.0);
    EXPECT_EQ(latency.snapshot().count, before + 1);
}

TEST(ParallelForError, ReportsFailingIndexRangeFromPool)
{
    ScopedThreads guard(4);
    try {
        util::parallelFor(100, [](std::size_t i) {
            if (i == 57)
                throw std::runtime_error("boom");
        });
        FAIL() << "expected ParallelForError";
    } catch (const util::ParallelForError &e) {
        // 100 indices over 4 lanes: chunk boundaries 0/25/50/75/100, so
        // index 57 dies in [50, 75).
        EXPECT_EQ(e.rangeBegin(), 50u);
        EXPECT_EQ(e.rangeEnd(), 75u);
        const std::string what = e.what();
        EXPECT_NE(what.find("boom"), std::string::npos);
        EXPECT_NE(what.find("[50, 75)"), std::string::npos);
    }
}

TEST(ParallelForError, InlinePathRethrowsOriginal)
{
    ScopedThreads guard(1);
    try {
        util::parallelFor(100, [](std::size_t i) {
            if (i == 57)
                throw std::runtime_error("boom");
        });
        FAIL() << "expected std::runtime_error";
    } catch (const util::ParallelForError &) {
        FAIL() << "inline path must not wrap";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

// ---- Golden exports ----------------------------------------------------

/** A fixed snapshot + span tree with known, stable formatting. */
struct GoldenFixture {
    obs::MetricsSnapshot snapshot;
    obs::SpanNode root{"root", nullptr};

    GoldenFixture()
    {
        snapshot.counters.push_back({"trace.stats_cache.hit", 42});
        snapshot.gauges.push_back({"monitor.fragmentation_ratio", 1.25});
        // Watts: more significant digits than ostream's default six.
        snapshot.gauges.push_back({"monitor.root_peak", 1234567.891});

        obs::HistogramSample h;
        h.name = "monitor.observe_seconds";
        h.data.bucketCounts.assign(obs::Histogram::kBuckets, 0);
        const auto &bounds = obs::histogramBounds();
        const auto bucket_of = [&](double bound) {
            return static_cast<std::size_t>(
                std::find(bounds.begin(), bounds.end(), bound) -
                bounds.begin());
        };
        h.data.bucketCounts[bucket_of(0.002)] = 2;
        h.data.bucketCounts[bucket_of(0.5)] = 1;
        h.data.count = 3;
        h.data.sum = 0.504;
        snapshot.histograms.push_back(std::move(h));

        auto place = std::make_unique<obs::SpanNode>("placement.place",
                                                     &root);
        place->invocations.store(1);
        place->totalNanos.store(2500000);
        auto kmeans = std::make_unique<obs::SpanNode>("cluster.kmeans",
                                                      place.get());
        kmeans->invocations.store(4);
        kmeans->totalNanos.store(1200000);
        place->children.emplace("cluster.kmeans", std::move(kmeans));
        root.children.emplace("placement.place", std::move(place));
    }
};

TEST(Export, JsonGolden)
{
    GoldenFixture fx;
    std::ostringstream out;
    obs::writeMetricsJson(out, fx.snapshot, fx.root, "golden",
                          "2026-01-01T00:00:00Z");
    const std::string expected = R"({
  "label": "golden",
  "timestamp_utc": "2026-01-01T00:00:00Z",
  "counters": {
    "trace.stats_cache.hit": 42
  },
  "gauges": {
    "monitor.fragmentation_ratio": 1.25,
    "monitor.root_peak": 1234567.891
  },
  "histograms": {
    "monitor.observe_seconds": {"count": 3, "sum": 0.504, "buckets": [{"le": 0.002, "count": 2}, {"le": 0.5, "count": 1}], "overflow": 0}
  },
  "spans":
    {"name": "root", "invocations": 0, "total_ns": 0, "children": [
      {"name": "placement.place", "invocations": 1, "total_ns": 2500000, "children": [
        {"name": "cluster.kmeans", "invocations": 4, "total_ns": 1200000}
      ]}
    ]}
}
)";
    EXPECT_EQ(out.str(), expected);
}

TEST(Export, PrometheusGolden)
{
    GoldenFixture fx;
    std::ostringstream out;
    obs::writeMetricsPrometheus(out, fx.snapshot, fx.root);
    const std::string expected =
        R"(# TYPE sosim_trace_stats_cache_hit_total counter
sosim_trace_stats_cache_hit_total 42
# TYPE sosim_monitor_fragmentation_ratio gauge
sosim_monitor_fragmentation_ratio 1.25
# TYPE sosim_monitor_root_peak gauge
sosim_monitor_root_peak 1234567.891
# TYPE sosim_monitor_observe_seconds histogram
sosim_monitor_observe_seconds_bucket{le="0.002"} 2
sosim_monitor_observe_seconds_bucket{le="0.5"} 3
sosim_monitor_observe_seconds_bucket{le="+Inf"} 3
sosim_monitor_observe_seconds_sum 0.504
sosim_monitor_observe_seconds_count 3
# TYPE sosim_span_invocations_total counter
sosim_span_invocations_total{span="placement.place"} 1
sosim_span_invocations_total{span="placement.place/cluster.kmeans"} 4
# TYPE sosim_span_busy_seconds_total counter
sosim_span_busy_seconds_total{span="placement.place"} 0.0025
sosim_span_busy_seconds_total{span="placement.place/cluster.kmeans"} 0.0012
)";
    EXPECT_EQ(out.str(), expected);
}

TEST(Export, EmptySnapshotStillValidJson)
{
    obs::MetricsSnapshot empty;
    obs::SpanNode root("root", nullptr);
    std::ostringstream out;
    obs::writeMetricsJson(out, empty, root, "empty",
                          "2026-01-01T00:00:00Z");
    const std::string expected = R"({
  "label": "empty",
  "timestamp_utc": "2026-01-01T00:00:00Z",
  "counters": {},
  "gauges": {},
  "histograms": {},
  "spans":
    {"name": "root", "invocations": 0, "total_ns": 0}
}
)";
    EXPECT_EQ(out.str(), expected);
}

TEST(Export, PrometheusEscapesHostileSpanNames)
{
    // Span names come from call sites, but nothing stops one carrying
    // label-breaking characters; the exporter must escape them rather
    // than emit a syntactically broken exposition line.
    obs::MetricsSnapshot empty;
    obs::SpanNode root("root", nullptr);
    auto hostile = std::make_unique<obs::SpanNode>(
        "bad\\name\"quoted\"\nnewline", &root);
    hostile->invocations.store(1);
    hostile->totalNanos.store(1000000);
    root.children.emplace(hostile->name, std::move(hostile));

    std::ostringstream out;
    obs::writeMetricsPrometheus(out, empty, root);
    const std::string text = out.str();
    EXPECT_NE(
        text.find(
            R"(span="bad\\name\"quoted\"\nnewline")"),
        std::string::npos)
        << text;
    // The raw newline must not survive inside a label value.
    EXPECT_EQ(text.find("quoted\"\n"), std::string::npos);
}

TEST(Export, JsonRendersNonFiniteValuesAsNull)
{
    obs::MetricsSnapshot snapshot;
    snapshot.gauges.push_back(
        {"test.nan_gauge", std::numeric_limits<double>::quiet_NaN()});
    snapshot.gauges.push_back(
        {"test.inf_gauge", std::numeric_limits<double>::infinity()});
    obs::HistogramSample h;
    h.name = "test.nan_hist";
    h.data.bucketCounts.assign(obs::Histogram::kBuckets, 0);
    h.data.count = 1;
    h.data.sum = std::numeric_limits<double>::quiet_NaN();
    snapshot.histograms.push_back(std::move(h));

    obs::SpanNode root("root", nullptr);
    std::ostringstream out;
    obs::writeMetricsJson(out, snapshot, root, "nonfinite",
                          "2026-01-01T00:00:00Z");
    const std::string text = out.str();
    EXPECT_NE(text.find("\"test.nan_gauge\": null"), std::string::npos);
    EXPECT_NE(text.find("\"test.inf_gauge\": null"), std::string::npos);
    EXPECT_NE(text.find("\"sum\": null"), std::string::npos);
    // A bare nan/inf token would make the document unparseable.
    std::string error;
    EXPECT_TRUE(obs::validateJson(text, &error)) << error;
}

TEST(Export, SpanTreePrinterShowsHierarchy)
{
    GoldenFixture fx;
    std::ostringstream out;
    out << std::setprecision(9); // The printer must restore this.
    obs::printSpanTree(out, fx.root);
    const std::string text = out.str();
    EXPECT_NE(text.find("placement.place"), std::string::npos);
    EXPECT_NE(text.find("cluster.kmeans"), std::string::npos);
    EXPECT_NE(text.find("2.50 ms"), std::string::npos);
    EXPECT_NE(text.find("48.0%"), std::string::npos); // 1.2 / 2.5.
    EXPECT_EQ(out.precision(), 9);
}

} // namespace

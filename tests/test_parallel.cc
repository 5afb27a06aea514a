/**
 * @file
 * Tests for util::parallelFor and the library's determinism contract:
 * for a fixed seed, the parallel code paths (scoreVectors rows, k-means
 * restarts and assignment loops, placement recursion, remap candidate
 * evaluation, trace generation) must produce results bit-identical to a
 * serial run, for any thread count.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "core/asynchrony.h"
#include "core/fingerprints.h"
#include "core/placement.h"
#include "core/remap.h"
#include "cluster/kmeans.h"
#include "power/power_tree.h"
#include "trace/kernels.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/dc_presets.h"
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

workload::GeneratedDatacenter
smallDc(int instances_per_service)
{
    workload::DatacenterSpec spec;
    spec.name = "par-test";
    spec.topology.suites = 2;
    spec.topology.msbsPerSuite = 1;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 1;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = 60;
    spec.weeks = 1;
    spec.seed = 17;
    spec.services.push_back(
        {workload::webFrontend(), instances_per_service});
    spec.services.push_back({workload::hadoop(), instances_per_service});
    return workload::generate(spec);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
        ScopedThreads guard(threads);
        std::vector<std::atomic<int>> hits(1000);
        util::parallelFor(hits.size(),
                          [&](std::size_t i) { hits[i].fetch_add(1); });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, HandlesEmptyAndTinyRanges)
{
    ScopedThreads guard(4);
    int calls = 0;
    util::parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    util::parallelFor(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NestedCallsRunInline)
{
    ScopedThreads guard(4);
    std::vector<std::atomic<int>> hits(64);
    util::parallelFor(8, [&](std::size_t outer) {
        util::parallelFor(8, [&](std::size_t inner) {
            hits[outer * 8 + inner].fetch_add(1);
        });
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesBodyExceptions)
{
    ScopedThreads guard(4);
    EXPECT_THROW(util::parallelFor(
                     100,
                     [](std::size_t i) {
                         if (i == 57)
                             throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
}

TEST(ParallelFor, ThreadCountResolution)
{
    util::setThreadCount(3);
    EXPECT_EQ(util::threadCount(), 3u);
    util::setThreadCount(0);
    EXPECT_GE(util::threadCount(), 1u);
}

/** Set (or, for nullptr, unset) an environment variable for one scope;
 *  the former value comes back when the scope ends. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> old_;
};

// These tests only resolve counts: none calls parallelFor, so no value
// under test starts a thread.
TEST(ParallelFor, ThreadsVariableIsParsedWhole)
{
    util::setThreadCount(0);
    const std::size_t automatic = [] {
        ScopedEnv env("SOSIM_THREADS", nullptr);
        return util::threadCount();
    }();
    {
        ScopedEnv env("SOSIM_THREADS", "");
        EXPECT_EQ(util::threadCount(), automatic);
    }
    {
        ScopedEnv env("SOSIM_THREADS", "3");
        EXPECT_EQ(util::threadCount(), 3u);
    }
    {
        ScopedEnv env("SOSIM_THREADS", "1024");
        EXPECT_EQ(util::threadCount(), util::kMaxThreads);
    }
    for (const char *bad : {"4x", "abc", "-2", "0", " 4", "4 ", "+4", "1025",
                            "100000", "99999999999999999999999"}) {
        ScopedEnv env("SOSIM_THREADS", bad);
        try {
            util::threadCount();
            ADD_FAILURE() << "SOSIM_THREADS='" << bad << "' was accepted";
        } catch (const util::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "SOSIM_THREADS: '" + std::string(bad) + "'"),
                      std::string::npos)
                << e.what();
        }
    }
    // The override is not the environment: it wins over a bad variable.
    ScopedEnv env("SOSIM_THREADS", "4x");
    util::setThreadCount(2);
    EXPECT_EQ(util::threadCount(), 2u);
    util::setThreadCount(0);
}

TEST(ParallelFor, SetThreadCountRefusesAboveTheLimit)
{
    util::setThreadCount(util::kMaxThreads);
    EXPECT_EQ(util::threadCount(), util::kMaxThreads);
    util::setThreadCount(2);
    EXPECT_THROW(util::setThreadCount(util::kMaxThreads + 1),
                 util::FatalError);
    EXPECT_THROW(util::setThreadCount(100000), util::FatalError);
    // A refused count leaves the override as it was.
    EXPECT_EQ(util::threadCount(), 2u);
    util::setThreadCount(0);
}

TEST(ParallelFor, WatchdogVariableIsResolvedAtOneThread)
{
    // At one thread every call runs inline, so nothing starts a thread;
    // a refused value fails the call all the same.
    util::setThreadCount(1);
    {
        ScopedEnv env("SOSIM_POOL_WATCHDOG_MS", "0");
        int ran = 0;
        try {
            util::parallelFor(4, [&](std::size_t) { ++ran; });
            ADD_FAILURE() << "SOSIM_POOL_WATCHDOG_MS='0' was accepted";
        } catch (const util::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "SOSIM_POOL_WATCHDOG_MS: '0' is below 1"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(ran, 0);
    }
    {
        ScopedEnv env("SOSIM_POOL_WATCHDOG_MS", "250");
        int ran = 0;
        util::parallelFor(4, [&](std::size_t) { ++ran; });
        EXPECT_EQ(ran, 4);
    }
    util::setThreadCount(0);
}

// The state a stuck chunk touches after the watchdog abandons its job
// must outlive the submitting call, so it is static (the chunk's copy
// of the body holds pointers to it, not to the test's stack frame).
std::atomic<bool> g_watchdogRelease{false};
std::atomic<int> g_watchdogStuck{0};

TEST(ParallelFor, WatchdogUnsticksSubmitterInsteadOfDeadlocking)
{
    ScopedThreads guard(4);
    // Warm the pool so its background workers exist before the clock
    // runs: pool creation must not eat into the watchdog window.
    util::parallelFor(8, [](std::size_t) {});

    util::setPoolWatchdogMillis(400);
    g_watchdogRelease.store(false);
    const auto main_id = std::this_thread::get_id();
    std::atomic<bool> *release = &g_watchdogRelease;
    std::atomic<int> *stuck = &g_watchdogStuck;

    // Background-worker chunks wedge on the release flag; the caller's
    // own chunks sleep past the claim phase and finish, so the caller
    // reaches its completion wait with workers still stuck — exactly
    // the hang this watchdog exists to break.
    bool threw = false;
    try {
        util::parallelFor(8, [=](std::size_t) {
            if (std::this_thread::get_id() == main_id) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
                return;
            }
            stuck->fetch_add(1);
            while (!release->load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        });
    } catch (const util::ParallelForError &e) {
        threw = true;
        EXPECT_LT(e.rangeBegin(), e.rangeEnd());
        EXPECT_LE(e.rangeEnd(), 8u);
    }
    EXPECT_TRUE(threw);
    EXPECT_GT(g_watchdogStuck.load(), 0);

    // Let the wedged chunks drain in their parked pool, then prove the
    // next fan-out gets a fresh, working pool.
    g_watchdogRelease.store(true);
    std::vector<std::atomic<int>> hits(64);
    util::parallelFor(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    util::setPoolWatchdogMillis(0);
}

TEST(ParallelDeterminism, ScoreVectorsBitIdenticalToSerialAndReference)
{
    const auto dc = smallDc(12);
    const auto traces = dc.trainingTraces();
    std::vector<trace::TimeSeries> straces(traces.begin(),
                                           traces.begin() + 3);

    std::vector<cluster::Point> serial, parallel;
    {
        ScopedThreads guard(1);
        serial = core::scoreVectors(traces, straces);
    }
    {
        ScopedThreads guard(4);
        parallel = core::scoreVectors(traces, straces);
    }
    const auto naive = core::reference::scoreVectors(traces, straces);
    // Exact equality, element for element: same doubles, not just close.
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial, naive);
}

TEST(ParallelDeterminism, SharedSeriesStatsNeedNoWarmUp)
{
    // A const series holds samples only, so workers may read its peak
    // and stats at once with no serial warm-up.  The workers meet at a
    // barrier before reading: under ThreadSanitizer a write hidden
    // behind one worker's const read races with another worker's read.
    std::vector<double> samples(2016);
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = 2.0 + std::sin(0.003 * static_cast<double>(i * i));
    const trace::TimeSeries shared(std::move(samples), 5);
    const trace::TraceStats want = trace::computeStats(shared);

    constexpr std::size_t kWorkers = 4;
    ScopedThreads guard(kWorkers);
    std::atomic<std::size_t> arrived{0};
    std::vector<double> peaks(kWorkers);
    std::vector<trace::TraceStats> stats(kWorkers);
    util::parallelFor(kWorkers, [&](std::size_t w) {
        // Bounded wait: a pool with fewer free lanes still finishes.
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (arrived.load() < kWorkers &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        peaks[w] = shared.peak();
        stats[w] = shared.stats();
    });
    for (std::size_t w = 0; w < kWorkers; ++w) {
        EXPECT_EQ(peaks[w], want.peak);
        EXPECT_EQ(stats[w].peak, want.peak);
        EXPECT_EQ(stats[w].valley, want.valley);
        EXPECT_EQ(stats[w].sum, want.sum);
        EXPECT_EQ(stats[w].mean, want.mean);
        EXPECT_EQ(stats[w].peakIndex, want.peakIndex);
    }
}

TEST(ParallelDeterminism, KMeansBitIdenticalAcrossThreadCounts)
{
    util::Rng rng(3);
    std::vector<cluster::Point> points;
    for (int i = 0; i < 400; ++i) {
        cluster::Point p(6);
        for (auto &x : p)
            x = rng.uniform(0.0, 4.0);
        points.push_back(std::move(p));
    }
    cluster::KMeansConfig config;
    config.k = 7;
    config.restarts = 4;
    config.seed = 19;

    cluster::KMeansResult serial, parallel;
    {
        ScopedThreads guard(1);
        serial = cluster::kMeans(points, config);
    }
    {
        ScopedThreads guard(4);
        parallel = cluster::kMeans(points, config);
    }
    EXPECT_EQ(serial.assignment, parallel.assignment);
    EXPECT_EQ(serial.centroids, parallel.centroids);
    EXPECT_DOUBLE_EQ(serial.inertia, parallel.inertia);
    EXPECT_EQ(serial.iterations, parallel.iterations);
}

TEST(ParallelDeterminism, PlacementIdenticalAcrossThreadsAndScoringImpl)
{
    const auto dc = smallDc(16);
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    power::PowerTree tree(dc.spec().topology);

    core::PlacementConfig fused;
    core::PlacementConfig reference;
    reference.scoring = core::ScoringImpl::kReference;

    power::Assignment serial, parallel, ref;
    {
        ScopedThreads guard(1);
        serial = core::PlacementEngine(tree, fused)
                     .place(traces, service_of);
    }
    {
        ScopedThreads guard(4);
        parallel = core::PlacementEngine(tree, fused)
                       .place(traces, service_of);
        ref = core::PlacementEngine(tree, reference)
                  .place(traces, service_of);
    }
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial, ref);
}

TEST(ParallelDeterminism, RemapSwapsIdenticalAcrossThreadCounts)
{
    const auto dc = smallDc(16);
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    power::PowerTree tree(dc.spec().topology);
    const auto start = baseline::obliviousPlacement(tree, service_of);

    auto run = [&](std::size_t threads) {
        ScopedThreads guard(threads);
        power::Assignment assignment = start;
        core::Remapper remapper(tree);
        const auto swaps = remapper.refine(assignment, traces);
        return std::make_pair(assignment, swaps.size());
    };
    const auto [serial_assign, serial_swaps] = run(1);
    const auto [parallel_assign, parallel_swaps] = run(4);
    EXPECT_EQ(serial_assign, parallel_assign);
    EXPECT_EQ(serial_swaps, parallel_swaps);
}

/** Everything generate() draws, flattened for exact comparison. */
struct GeneratedSummary {
    std::vector<std::uint64_t> weekFingerprints;
    std::vector<std::size_t> serviceIndex;
    std::vector<double> popularity;
    std::vector<double> amplitude;
    std::vector<double> phaseHours;
    std::vector<std::vector<double>> activity;

    bool operator==(const GeneratedSummary &) const = default;
};

GeneratedSummary
generateAt(const workload::DatacenterSpec &spec, std::size_t threads)
{
    ScopedThreads guard(threads);
    const auto dc = workload::generate(spec);
    GeneratedSummary out;
    for (int w = 0; w < spec.weeks; ++w) {
        std::vector<trace::TimeSeries> week;
        for (std::size_t i = 0; i < dc.instanceCount(); ++i)
            week.push_back(dc.weekTrace(i, w));
        out.weekFingerprints.push_back(core::fingerprintTraces(week));
        for (std::size_t s = 0; s < dc.serviceCount(); ++s)
            out.activity.push_back(dc.serviceActivity(s, w).samples());
    }
    for (std::size_t i = 0; i < dc.instanceCount(); ++i) {
        const auto &info = dc.instance(i);
        out.serviceIndex.push_back(info.serviceIndex);
        out.popularity.push_back(info.popularity);
        out.amplitude.push_back(info.amplitude);
        out.phaseHours.push_back(info.phaseHours);
    }
    return out;
}

TEST(ParallelDeterminism, GeneratedDatacenterBitIdenticalAcrossThreadCounts)
{
    workload::PresetOptions options;
    options.intervalMinutes = 60;
    options.scale = 0.05;
    const auto dc3 = workload::buildDc3Spec(options);

    // Edge cases of the serial fork phase: a service with no instances
    // between two that have some, one without Zipf popularity (no
    // shuffle draws) and one without bursts (no burst draws).
    workload::DatacenterSpec mixed;
    mixed.name = "par-gen";
    mixed.intervalMinutes = 30;
    mixed.weeks = 2;
    mixed.seed = 29;
    auto flat = workload::webFrontend();
    flat.popularityZipf = 0.0;
    auto steady = workload::hadoop();
    steady.burstsPerDay = 0.0;
    mixed.services.push_back({workload::dbBackend(), 9});
    mixed.services.push_back({workload::webFrontend(), 0});
    mixed.services.push_back({flat, 7});
    mixed.services.push_back({steady, 5});

    for (const auto &spec : {dc3, mixed}) {
        const auto serial = generateAt(spec, 1);
        ASSERT_EQ(serial.serviceIndex.size(),
                  static_cast<std::size_t>(spec.totalInstances()));
        for (const std::size_t threads : {std::size_t(2), std::size_t(4)})
            EXPECT_TRUE(generateAt(spec, threads) == serial)
                << spec.name << " at " << threads << " threads";
    }
}

} // namespace

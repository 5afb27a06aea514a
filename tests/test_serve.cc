/**
 * @file
 * Tests for the serve layer (DESIGN.md section 14): StreamRing ingest
 * classification and incremental window stats, epoch snapshots and
 * backpressure, checkpoint files, and the kill/restore replay-equality
 * contract of serve::Service.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "serve/checkpoint.h"
#include "serve/ring.h"
#include "serve/service.h"
#include "power/power_tree.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace sosim;
using serve::IngestStatus;
using serve::Sample;
using serve::StreamRing;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Force a specific worker count for the duration of a scope. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(std::size_t n) { util::setThreadCount(n); }
    ~ScopedThreads() { util::setThreadCount(0); }
};

/** A fresh empty directory under the test temp root. */
std::string
freshDir(const std::string &name)
{
    const std::string path = testing::TempDir() + "sosim_serve_" + name;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

/** Naive recompute of one instance's window stats from a snapshot row. */
serve::RunningWindowStats
naiveStats(const trace::TimeSeries &row)
{
    serve::RunningWindowStats s;
    for (std::size_t i = 0; i < row.size(); ++i) {
        const double v = row[i];
        if (!std::isfinite(v))
            continue;
        s.sum += v;
        s.validCount += 1;
        if (s.validCount == 1 || v > s.peak)
            s.peak = v;
    }
    if (s.validCount == 0)
        s.peak = 0.0;
    return s;
}

TEST(ServeRing, AcceptsFrontierAndLateSamples)
{
    StreamRing ring(2, 4, 60);
    EXPECT_EQ(ring.frontier(), 0u);
    EXPECT_EQ(ring.ingest({0, 0, 1.5}), IngestStatus::Accepted);
    ring.advanceTo(2);
    EXPECT_EQ(ring.ingest({2, 0, 3.0}), IngestStatus::Accepted);
    // Tick 1 is behind the frontier but inside the window: late-accept.
    EXPECT_EQ(ring.ingest({1, 0, 2.0}), IngestStatus::AcceptedLate);
    EXPECT_EQ(ring.acceptedCount(), 3u);
    EXPECT_EQ(ring.lateCount(), 1u);

    const auto &st = ring.stats(0);
    EXPECT_DOUBLE_EQ(st.sum, 6.5);
    EXPECT_DOUBLE_EQ(st.peak, 3.0);
    EXPECT_EQ(st.validCount, 3u);
    EXPECT_DOUBLE_EQ(st.mean(), 6.5 / 3.0);

    // The untouched instance is empty, not polluted.
    EXPECT_EQ(ring.stats(1).validCount, 0u);
}

TEST(ServeRing, RejectionTaxonomyNeverThrows)
{
    StreamRing ring(2, 4, 60);
    ring.advanceTo(10);

    EXPECT_EQ(ring.ingest({10, 7, 1.0}),
              IngestStatus::RejectedUnknownInstance);
    EXPECT_EQ(ring.ingest({10, 0, kNaN}), IngestStatus::RejectedNonFinite);
    EXPECT_EQ(ring.ingest({10, 0,
                           std::numeric_limits<double>::infinity()}),
              IngestStatus::RejectedNonFinite);
    EXPECT_EQ(ring.ingest({10, 0, -0.25}), IngestStatus::RejectedNegative);
    EXPECT_EQ(ring.ingest({11, 0, 1.0}), IngestStatus::RejectedFuture);
    // Window covers ticks (6, 10]; tick 6 has left it.
    EXPECT_EQ(ring.ingest({6, 0, 1.0}), IngestStatus::RejectedStale);
    EXPECT_EQ(ring.ingest({10, 0, 1.0}), IngestStatus::Accepted);
    EXPECT_EQ(ring.ingest({10, 0, 2.0}), IngestStatus::RejectedDuplicate);

    EXPECT_EQ(ring.rejectedCount(IngestStatus::RejectedUnknownInstance),
              1u);
    EXPECT_EQ(ring.rejectedCount(IngestStatus::RejectedNonFinite), 2u);
    EXPECT_EQ(ring.rejectedCount(IngestStatus::RejectedNegative), 1u);
    EXPECT_EQ(ring.rejectedCount(IngestStatus::RejectedFuture), 1u);
    EXPECT_EQ(ring.rejectedCount(IngestStatus::RejectedStale), 1u);
    EXPECT_EQ(ring.rejectedCount(IngestStatus::RejectedDuplicate), 1u);
    EXPECT_EQ(ring.rejectedTotal(), 7u);

    // Every reject is quarantined with its reason, oldest first.
    const auto q = ring.quarantined();
    ASSERT_EQ(q.size(), 7u);
    EXPECT_EQ(q.front().reason, IngestStatus::RejectedUnknownInstance);
    EXPECT_EQ(q.back().reason, IngestStatus::RejectedDuplicate);
    EXPECT_EQ(q.back().sample.watts, 2.0);

    // The rejects left no trace in the stored window.
    EXPECT_EQ(ring.stats(0).validCount, 1u);
    EXPECT_DOUBLE_EQ(ring.stats(0).sum, 1.0);
}

TEST(ServeRing, QuarantineIsBounded)
{
    StreamRing ring(1, 2, 60);
    for (std::uint64_t i = 0; i < StreamRing::kQuarantineCapacity + 10;
         ++i)
        ring.ingest({i + 1, 0, 1.0}); // all future: rejected
    EXPECT_EQ(ring.quarantined().size(), StreamRing::kQuarantineCapacity);
    EXPECT_EQ(ring.rejectedCount(IngestStatus::RejectedFuture),
              StreamRing::kQuarantineCapacity + 10);
}

TEST(ServeRing, IncrementalStatsMatchFullRescanUnderFuzz)
{
    util::Rng rng(99);
    StreamRing ring(3, 8, 30);
    std::uint64_t frontier = 0;
    for (int step = 0; step < 2000; ++step) {
        const int what = int(rng.uniformInt(0, 9));
        if (what == 0) {
            frontier += std::uint64_t(rng.uniformInt(1, 5));
            ring.advanceTo(frontier);
        } else {
            // Mostly frontier fills, some late, some garbage.
            Sample s;
            s.instance = std::uint64_t(rng.uniformInt(0, 2));
            const std::int64_t back = rng.uniformInt(0, 9);
            s.tick = frontier > std::uint64_t(back)
                         ? frontier - std::uint64_t(back)
                         : 0;
            s.watts = rng.chance(0.05) ? kNaN : rng.uniform(0.0, 10.0);
            ring.ingest(s);
        }
        if (step % 50 == 0) {
            const auto snap = ring.snapshotWindow();
            for (std::size_t i = 0; i < 3; ++i) {
                const auto naive = naiveStats(snap[i]);
                const auto &inc = ring.stats(i);
                EXPECT_EQ(inc.validCount, naive.validCount);
                EXPECT_NEAR(inc.sum, naive.sum, 1e-9);
                EXPECT_DOUBLE_EQ(inc.peak, naive.peak);
            }
        }
    }
}

TEST(ServeRing, SnapshotIsImmutableAndOldestFirst)
{
    StreamRing ring(1, 4, 60);
    ring.advanceTo(5);
    ring.ingest({4, 0, 4.0});
    ring.ingest({5, 0, 5.0});
    const auto snap = ring.snapshotWindow();
    ASSERT_EQ(snap.size(), 1u);
    ASSERT_EQ(snap[0].size(), 4u);
    // Window ticks (1, 5] oldest-first: 2, 3 silent; 4, 5 filled.
    EXPECT_TRUE(std::isnan(snap[0][0]));
    EXPECT_TRUE(std::isnan(snap[0][1]));
    EXPECT_DOUBLE_EQ(snap[0][2], 4.0);
    EXPECT_DOUBLE_EQ(snap[0][3], 5.0);

    // Later stream activity cannot reach into the materialized copy.
    ring.ingest({3, 0, 9.0});
    ring.advanceTo(9);
    EXPECT_TRUE(std::isnan(snap[0][1]));
    EXPECT_DOUBLE_EQ(snap[0][3], 5.0);
}

TEST(ServeRing, RestoreStateRoundTrip)
{
    StreamRing ring(2, 4, 60);
    ring.advanceTo(6);
    ring.ingest({6, 0, 2.0});
    ring.ingest({5, 0, 1.0});
    ring.ingest({6, 1, 7.0});
    ring.ingest({9, 1, 1.0});  // rejected: future
    ring.ingest({6, 1, 1.0});  // rejected: duplicate

    StreamRing copy(2, 4, 60);
    copy.restoreState(ring.frontier(), ring.slotValues(),
                      ring.slotFillTicks(), ring.counterValues());
    EXPECT_EQ(copy.frontier(), ring.frontier());
    EXPECT_EQ(copy.acceptedCount(), ring.acceptedCount());
    EXPECT_EQ(copy.lateCount(), ring.lateCount());
    EXPECT_EQ(copy.rejectedTotal(), ring.rejectedTotal());
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_DOUBLE_EQ(copy.stats(i).sum, ring.stats(i).sum);
        EXPECT_DOUBLE_EQ(copy.stats(i).peak, ring.stats(i).peak);
        EXPECT_EQ(copy.stats(i).validCount, ring.stats(i).validCount);
    }
    // The restored ring keeps streaming identically.
    copy.advanceTo(7);
    ring.advanceTo(7);
    EXPECT_EQ(copy.ingest({7, 0, 3.0}), ring.ingest({7, 0, 3.0}));
    EXPECT_DOUBLE_EQ(copy.stats(0).sum, ring.stats(0).sum);
}

TEST(ServeCheckpoint, PayloadRoundTripIsBitExact)
{
    serve::PayloadWriter w;
    w.u64(42);
    w.f64(0.1 + 0.2); // not exactly representable — must survive bitwise
    w.u64Vector({1, 2, 3});
    w.f64Vector({kNaN, -0.0, 1e300});

    serve::PayloadReader r(w.bytes());
    std::uint64_t a = 0;
    double b = 0;
    std::vector<std::uint64_t> v;
    std::vector<double> d;
    ASSERT_TRUE(r.u64(a));
    ASSERT_TRUE(r.f64(b));
    ASSERT_TRUE(r.u64Vector(v));
    ASSERT_TRUE(r.f64Vector(d));
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(a, 42u);
    EXPECT_DOUBLE_EQ(b, 0.1 + 0.2);
    EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2, 3}));
    ASSERT_EQ(d.size(), 3u);
    EXPECT_TRUE(std::isnan(d[0]));
    EXPECT_EQ(std::signbit(d[1]), true);
    EXPECT_DOUBLE_EQ(d[2], 1e300);

    // Underrun is a clean failure, not UB.
    std::uint64_t extra = 0;
    EXPECT_FALSE(r.u64(extra));
}

TEST(ServeCheckpoint, FileRoundTripAndValidation)
{
    const std::string dir = freshDir("ckpt");
    serve::PayloadWriter w;
    w.u64(7);
    w.f64(2.5);
    std::string error;
    ASSERT_TRUE(serve::writeCheckpointFile(dir, 0xabcd, 3, w.bytes(),
                                           &error))
        << error;

    auto ok = serve::readCheckpointFile(
        serve::checkpointSlotPath(dir, 1), 0xabcd, &error);
    ASSERT_TRUE(ok.has_value()) << error;
    EXPECT_EQ(ok->epoch, 3u);
    EXPECT_EQ(ok->payload, w.bytes());

    // Wrong shape fingerprint: a checkpoint can never be restored into
    // a differently-shaped service.
    EXPECT_FALSE(serve::readCheckpointFile(
                     serve::checkpointSlotPath(dir, 1), 0xbeef, &error)
                     .has_value());

    // A flipped payload byte is caught by the payload fingerprint.
    const std::string path = serve::checkpointSlotPath(dir, 1);
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(-1, std::ios::end);
        f.put('\x7f');
    }
    EXPECT_FALSE(
        serve::readCheckpointFile(path, 0xabcd, &error).has_value());
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;

    // Missing file: clean nullopt.
    EXPECT_FALSE(serve::readCheckpointFile(dir + "/nope.bin", 0xabcd,
                                           &error)
                     .has_value());
}

TEST(ServeCheckpoint, TornSlotFallsBackToOtherSlot)
{
    const std::string dir = freshDir("torn");
    serve::PayloadWriter w1, w2;
    w1.u64(1);
    w2.u64(2);
    ASSERT_TRUE(serve::writeCheckpointFile(dir, 5, 1, w1.bytes(),
                                           nullptr)); // slot b
    ASSERT_TRUE(serve::writeCheckpointFile(dir, 5, 2, w2.bytes(),
                                           nullptr)); // slot a

    auto best = serve::latestCheckpoint(dir, 5);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->epoch, 2u);

    // Truncate the newer slot mid-payload (a torn write): restore must
    // fall back to the older, intact slot instead of trusting it.
    const std::string newer = serve::checkpointSlotPath(dir, 0);
    std::filesystem::resize_file(newer,
                                 std::filesystem::file_size(newer) - 3);
    best = serve::latestCheckpoint(dir, 5);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->epoch, 1u);

    // Both slots gone: nothing to restore.
    std::filesystem::remove(newer);
    std::filesystem::remove(serve::checkpointSlotPath(dir, 1));
    EXPECT_FALSE(serve::latestCheckpoint(dir, 5).has_value());
}

// ---------------------------------------------------------------------
// Service-level fixtures: a 4-rack tree, 16 instances, two services.

power::TopologySpec
tinyTopology()
{
    power::TopologySpec spec;
    spec.suites = 1;
    spec.msbsPerSuite = 1;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 1;
    spec.racksPerRpp = 2;
    return spec;
}

constexpr std::size_t kInstances = 16;

std::vector<std::size_t>
tinyServices()
{
    std::vector<std::size_t> service_of(kInstances);
    for (std::size_t i = 0; i < kInstances; ++i)
        service_of[i] = i % 2;
    return service_of;
}

serve::ServeConfig
tinyConfig(const std::string &checkpoint_dir)
{
    serve::ServeConfig config;
    config.window = 12;
    config.epochTicks = 6;
    config.maxEpochQueue = 2;
    // Zero remap threshold: any non-degraded epoch with a baseline
    // recommends Remap, exercising the act-on-action path every run.
    config.monitor.remapThreshold = 0.0;
    config.monitor.replaceThreshold = 10.0;
    config.monitor.baselineWindowWeeks = 2;
    config.checkpointDir = checkpoint_dir;
    return config;
}

/** Deterministic per-(instance, tick) feed with a drifting diurnal
 *  shape, so successive epochs genuinely differ. */
double
feedWatts(std::size_t instance, std::uint64_t tick)
{
    const double phase =
        double(instance) * 0.7 + double(tick) * double(instance % 3) *
                                     0.01;
    return 1.0 + 0.5 * std::sin(double(tick) * 0.26 + phase);
}

/**
 * True when this instance's sensor is silent at this tick: one bounded
 * outage, so the epochs overlapping it take the degraded path while the
 * surrounding epochs stay clean and feed the baseline window.
 */
bool
sensorSilent(std::size_t instance, std::uint64_t tick)
{
    return instance == 2 && tick >= 30 && tick < 42;
}

/**
 * Drive a service from tick `from` to tick `to` inclusive with the
 * deterministic feed + garbage schedule, processing ready epochs every
 * third tick (so the bounded queue occasionally sheds).
 */
void
drive(serve::Service &svc, std::uint64_t from, std::uint64_t to)
{
    for (std::uint64_t t = from; t <= to; ++t) {
        svc.advanceTo(t);
        for (std::size_t i = 0; i < kInstances; ++i)
            if (!sensorSilent(i, t))
                svc.ingest({t, i, feedWatts(i, t)});
        // A little deterministic garbage every tick.
        svc.ingest({t, kInstances + 5, 1.0});
        svc.ingest({t, 0, kNaN});
        if (t % 7 == 0)
            svc.ingest({t + 3, 1, 1.0}); // future
        if (t % 3 == 0)
            svc.processReadyEpochs();
    }
}

TEST(ServeService, EpochQueueShedsOldestUnderBackpressure)
{
    power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    auto initial = baseline::obliviousPlacement(tree, service_of);
    serve::Service svc(tree, service_of, initial, 60, tinyConfig(""));

    // Never process: boundaries at 6, 12, ... pile up in the queue.
    for (std::uint64_t t = 0; t <= 40; ++t) {
        svc.advanceTo(t);
        for (std::size_t i = 0; i < kInstances; ++i)
            svc.ingest({t, i, feedWatts(i, t)});
    }
    // Boundaries crossed: 6,12,18,24,30,36 → 6 epochs, queue cap 2.
    EXPECT_EQ(svc.queueDepth(), 2u);
    EXPECT_EQ(svc.shedCount(), 4u);

    // The queue kept the *newest* epochs: processing them commits the
    // latest epoch id.
    const auto results = svc.processReadyEpochs();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].epoch, 5u);
    EXPECT_EQ(results[1].epoch, 6u);
    EXPECT_EQ(svc.committedEpoch(), 6u);
}

TEST(ServeService, ActsOnMonitorRecommendations)
{
    power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    auto initial = baseline::obliviousPlacement(tree, service_of);
    serve::Service svc(tree, service_of, initial, 60, tinyConfig(""));

    drive(svc, 0, 60);
    const auto more = svc.processReadyEpochs();
    (void)more;
    EXPECT_GT(svc.committedEpoch(), 0u);
    // The zero remap threshold guarantees at least one Remap acted on;
    // the assignment must have drifted from the oblivious start.
    EXPECT_NE(svc.assignment(), initial);
    // Ingest robustness alongside: the garbage was counted, not fatal.
    EXPECT_GT(svc.ring().rejectedCount(
                  IngestStatus::RejectedUnknownInstance),
              0u);
    EXPECT_GT(svc.ring().rejectedCount(IngestStatus::RejectedNonFinite),
              0u);
    EXPECT_GT(svc.ring().rejectedCount(IngestStatus::RejectedFuture), 0u);
}

TEST(ServeService, ShortEpochsJudgeAnUnfilledWindowAsDegraded)
{
    // Epochs shorter than half the window: the first snapshot holds 6 of
    // 24 ticks, so every instance falls below minValidFraction and the
    // week has no powered instance.  That is a degraded, action-None
    // epoch with the zero-power ratio sentinel — not an abort.
    power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    auto initial = baseline::obliviousPlacement(tree, service_of);
    auto config = tinyConfig("");
    config.window = 24;
    config.epochTicks = 6;
    serve::Service svc(tree, service_of, initial, 60, config);

    std::vector<serve::EpochResult> results;
    for (std::uint64_t t = 0; t <= 30; ++t) {
        svc.advanceTo(t);
        for (std::size_t i = 0; i < kInstances; ++i)
            svc.ingest({t, i, feedWatts(i, t)});
        for (auto &r : svc.processReadyEpochs())
            results.push_back(r);
    }
    ASSERT_EQ(results.size(), 5u);
    const auto &first = results.front().observation;
    EXPECT_TRUE(first.degradedData);
    EXPECT_EQ(first.fragmentationRatio, 0.0);
    EXPECT_EQ(first.excludedInstances, kInstances);
    EXPECT_EQ(first.action, core::MonitorAction::None);
    // Once the window is full the epochs measure normally.
    EXPECT_FALSE(results.back().observation.degradedData);
    EXPECT_GT(results.back().observation.fragmentationRatio, 0.0);
}

/** Run the full scenario unbroken and return the final digest. */
std::uint64_t
unbrokenDigest(std::uint64_t ticks)
{
    power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    auto initial = baseline::obliviousPlacement(tree, service_of);
    serve::Service svc(tree, service_of, initial, 60, tinyConfig(""));
    drive(svc, 0, ticks);
    svc.processReadyEpochs();
    return svc.digest();
}

TEST(ServeService, KillRestoreReplayMatchesUnbrokenRun)
{
    const std::uint64_t ticks = 80;
    for (const std::size_t threads :
         {std::size_t(1), std::size_t(4)}) {
        ScopedThreads guard(threads);
        const std::uint64_t want = unbrokenDigest(ticks);

        const std::string dir =
            freshDir("kill_" + std::to_string(threads));
        power::PowerTree tree(tinyTopology());
        const auto service_of = tinyServices();
        auto initial = baseline::obliviousPlacement(tree, service_of);

        // Three kill/restore cycles at fixed ticks: destroy the
        // service mid-run, rebuild from the checkpoint directory, and
        // resume the deterministic feed at frontier + 1.
        const std::uint64_t kills[] = {22, 47, 63};
        std::uint64_t resume = 0;
        std::uint64_t restores = 0;
        for (const std::uint64_t kill : kills) {
            serve::Service svc(tree, service_of, initial, 60,
                               tinyConfig(dir));
            if (svc.restoreLatest()) {
                ++restores;
                resume = svc.ring().frontier() + 1;
            }
            drive(svc, resume, kill);
            // Process death: the service object simply goes away, with
            // whatever un-checkpointed tail state it had.
        }
        serve::Service svc(tree, service_of, initial, 60,
                           tinyConfig(dir));
        ASSERT_TRUE(svc.restoreLatest());
        ++restores;
        drive(svc, svc.ring().frontier() + 1, ticks);
        svc.processReadyEpochs();

        EXPECT_EQ(restores, 3u);
        EXPECT_EQ(svc.digest(), want)
            << "threads=" << threads
            << ": restored replay diverged from the unbroken run";
    }
}

TEST(ServeService, RestoreWithoutCheckpointsReturnsFalse)
{
    const std::string dir = freshDir("empty");
    power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    auto initial = baseline::obliviousPlacement(tree, service_of);
    serve::Service svc(tree, service_of, initial, 60, tinyConfig(dir));
    EXPECT_FALSE(svc.restoreLatest());
    serve::Service no_dir(tree, service_of, initial, 60, tinyConfig(""));
    EXPECT_FALSE(no_dir.restoreLatest());
}

TEST(ServeService, ShapeMismatchRefusesRestore)
{
    const std::string dir = freshDir("shape");
    power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    auto initial = baseline::obliviousPlacement(tree, service_of);
    {
        serve::Service svc(tree, service_of, initial, 60,
                           tinyConfig(dir));
        drive(svc, 0, 20);
        ASSERT_GT(svc.committedEpoch(), 0u);
    }
    // Same checkpoint dir, different window: a differently-shaped
    // service must refuse the file rather than restore garbage.
    auto config = tinyConfig(dir);
    config.window = 10;
    serve::Service other(tree, service_of, initial, 60, config);
    EXPECT_FALSE(other.restoreLatest());
}

/**
 * Golden pin of the serve digest for the fixed scenario above at 80
 * ticks.  The digest hashes every epoch's ratio bits, action,
 * degradation tallies, swap count and assignment fingerprint, so any
 * change to the epoch loop's observable behavior moves it.  Update
 * procedure: run this test, read the actual value from the failure
 * message, and update the constant here in the same commit as the
 * behavior change that moved it — with a line in the commit message
 * saying why.
 */
TEST(ServeGolden, DigestPinned)
{
    const std::uint64_t want = 0x38e6678bddaf4edaull;
    EXPECT_EQ(unbrokenDigest(80), want)
        << "serve digest moved — see the update procedure above";
}

} // namespace

/**
 * @file
 * Tests for the serve layer (DESIGN.md section 14): StreamRing ingest
 * classification and window snapshots, epoch snapshots and
 * backpressure, checkpoint files and payload validation, registry
 * counter publication, and the kill/restore replay-equality contract of
 * serve::Service.
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "serve/checkpoint.h"
#include "serve/ring.h"
#include "serve/service.h"
#include "serve_fixture.h"
#include "obs/events.h"
#include "obs/obs.h"
#include "power/power_tree.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace sosim;
using namespace sosim::serve_fixture;
using serve::IngestStatus;
using serve::Sample;
using serve::StreamRing;

/** Force a specific worker count for the duration of a scope. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(std::size_t n) { util::setThreadCount(n); }
    ~ScopedThreads() { util::setThreadCount(0); }
};

/** Bitwise equality, so NaN == NaN and 0.0 != -0.0. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Expect one snapshot row to equal `want` bit for bit. */
void
expectRow(const trace::TimeSeries &row, const std::vector<double> &want)
{
    ASSERT_EQ(row.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j)
        EXPECT_TRUE(sameBits(row[j], want[j]))
            << "slot " << j << ": " << row[j] << " vs " << want[j];
}

/** Expect two rings to hold the same window, bit for bit. */
void
expectSameWindow(const StreamRing &a, const StreamRing &b)
{
    const auto want = b.snapshotWindow();
    const auto got = a.snapshotWindow();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        expectRow(got[i], want[i].samples());
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

    // Window ticks (-2, 2] oldest-first: tick -1 precedes the stream.
    const auto snap = ring.snapshotWindow();
    ASSERT_EQ(snap.size(), 2u);
    expectRow(snap[0], {kNaN, 1.5, 2.0, 3.0});
    // The untouched instance is empty, not polluted.
    expectRow(snap[1], {kNaN, kNaN, kNaN, kNaN});
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

    // The rejects left no trace in the stored window (ticks 7..10).
    const auto snap = ring.snapshotWindow();
    expectRow(snap[0], {kNaN, kNaN, kNaN, 1.0});
    expectRow(snap[1], {kNaN, kNaN, kNaN, kNaN});
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

TEST(ServeRing, SnapshotMatchesModelUnderFuzz)
{
    constexpr std::size_t kFleet = 3;
    constexpr std::uint64_t kWindow = 8;
    util::Rng rng(99);
    StreamRing ring(kFleet, kWindow, 30);
    // The documented classification rules over an (instance, tick) map.
    std::map<std::pair<std::uint64_t, std::uint64_t>, double> model;
    std::array<std::uint64_t, 8> counts{};
    std::uint64_t frontier = 0;
    const auto classify = [&](const Sample &s) {
        if (s.instance >= kFleet)
            return IngestStatus::RejectedUnknownInstance;
        if (!std::isfinite(s.watts))
            return IngestStatus::RejectedNonFinite;
        if (s.watts < 0.0)
            return IngestStatus::RejectedNegative;
        if (s.tick > frontier)
            return IngestStatus::RejectedFuture;
        if (s.tick + kWindow <= frontier)
            return IngestStatus::RejectedStale;
        if (!model.emplace(std::make_pair(s.instance, s.tick), s.watts)
                 .second)
            return IngestStatus::RejectedDuplicate;
        return s.tick < frontier ? IngestStatus::AcceptedLate
                                 : IngestStatus::Accepted;
    };
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
            const IngestStatus want = classify(s);
            ++counts[static_cast<std::size_t>(want)];
            EXPECT_EQ(ring.ingest(s), want) << "step " << step;
        }
        if (step % 50 == 0) {
            const auto snap = ring.snapshotWindow();
            for (std::uint64_t i = 0; i < kFleet; ++i) {
                std::vector<double> want(kWindow, kNaN);
                for (std::uint64_t j = 0; j < kWindow; ++j) {
                    if (frontier + 1 + j < kWindow)
                        continue; // before the stream began
                    const auto it =
                        model.find({i, frontier + 1 + j - kWindow});
                    if (it != model.end())
                        want[j] = it->second;
                }
                expectRow(snap[i], want);
            }
        }
    }
    EXPECT_EQ(ring.acceptedCount(), counts[0] + counts[1]);
    EXPECT_EQ(ring.lateCount(), counts[1]);
    for (std::size_t r = 2; r < counts.size(); ++r)
        EXPECT_EQ(ring.rejectedCount(static_cast<IngestStatus>(r)),
                  counts[r]);
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
    ASSERT_TRUE(copy.restoreState(ring.frontier(), ring.slotValues(),
                                  ring.slotFillTicks(),
                                  ring.counterValues()));
    EXPECT_EQ(copy.frontier(), ring.frontier());
    EXPECT_EQ(copy.acceptedCount(), ring.acceptedCount());
    EXPECT_EQ(copy.lateCount(), ring.lateCount());
    EXPECT_EQ(copy.rejectedTotal(), ring.rejectedTotal());
    EXPECT_EQ(copy.slotFillTicks(), ring.slotFillTicks());
    expectSameWindow(copy, ring);
    // The restored ring keeps streaming identically.
    copy.advanceTo(7);
    ring.advanceTo(7);
    EXPECT_EQ(copy.ingest({7, 0, 3.0}), ring.ingest({7, 0, 3.0}));
    EXPECT_EQ(copy.ingest({5, 0, 3.0}), ring.ingest({5, 0, 3.0}));
    expectSameWindow(copy, ring);
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
    // 24 ticks, so every instance falls below trace::kMinValidFraction
    // and the week has no powered instance.  That is a degraded,
    // action-None epoch with the zero-power ratio sentinel — not an
    // abort.
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

TEST(ServeService, ActingDegradedEpochRepairsOnce)
{
    // Epoch 1 (ticks 0-11) is clean and in phase, so it fills the
    // baseline window at the lowest ratio any placement can show.
    // Epoch 2 (ticks 12-23) splits the instances into two opposite
    // phases, which fragments the RPPs, and has gaps: instance 2 misses
    // 3 of its 12 ticks (repaired, included), instance 3 misses 8
    // (below the floor, excluded).  A zero remap threshold stays zero
    // when widened, so the degraded epoch acts: it refines on the
    // monitor's repaired copy and journals each repair once.
    power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    auto initial = baseline::obliviousPlacement(tree, service_of);
    auto config = tinyConfig("");
    config.epochTicks = 12;
    serve::Service svc(tree, service_of, initial, 60, config);

    auto &rec = obs::EventRecorder::instance();
    rec.reset();
    rec.setEnabled(true);
    std::vector<serve::EpochResult> results;
    for (std::uint64_t t = 0; t <= 24; ++t) {
        svc.advanceTo(t);
        for (std::size_t i = 0; i < kInstances; ++i) {
            if ((i == 2 && t >= 12 && t < 15) ||
                (i == 3 && t >= 12 && t < 20))
                continue;
            const double shift = t >= 12 && i % 2 == 1 ? 3.14159 : 0.0;
            svc.ingest({t, i, 1.0 + 0.5 * std::sin(double(t) * 0.5 +
                                                    shift)});
        }
        for (auto &r : svc.processReadyEpochs())
            results.push_back(r);
    }
    rec.setEnabled(false);
    const auto events = rec.collect(true).events;
    rec.reset();

    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].observation.degradedData);
    const auto &acted = results[1].observation;
    EXPECT_TRUE(acted.degradedData);
    EXPECT_EQ(acted.action, core::MonitorAction::Remap);
    EXPECT_EQ(acted.excludedInstances, 1u);
    EXPECT_EQ(acted.repairedSamples, 3u);

    std::map<std::uint64_t, std::size_t> repairs, excludes;
    for (const obs::Event &e : events) {
        if (e.kind == obs::EventKind::FaultRepair)
            ++repairs[e.a];
        if (e.kind == obs::EventKind::MonitorExclude)
            ++excludes[e.a];
    }
    EXPECT_EQ(repairs, (std::map<std::uint64_t, std::size_t>{{2, 1}}));
    EXPECT_EQ(excludes, (std::map<std::uint64_t, std::size_t>{{3, 1}}));
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

TEST(ServeService, RejectsInvalidEngineConfigAtConstruction)
{
    power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    auto initial = baseline::obliviousPlacement(tree, service_of);
    auto bad_remap = tinyConfig("");
    bad_remap.remap.maxSwaps = -1;
    EXPECT_THROW(serve::Service(tree, service_of, initial, 60, bad_remap),
                 util::FatalError);
    auto bad_placement = tinyConfig("");
    bad_placement.placement.clustersPerChild = 0;
    EXPECT_THROW(
        serve::Service(tree, service_of, initial, 60, bad_placement),
        util::FatalError);
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

TEST(ServeService, RestoreRefusesMalformedPayload)
{
    const std::string dir = freshDir("malformed");
    power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    auto initial = baseline::obliviousPlacement(tree, service_of);
    serve::Service svc(tree, service_of, initial, 60, tinyConfig(dir));
    drive(svc, 0, 20);
    const auto latest =
        serve::latestCheckpoint(dir, svc.shapeFingerprint());
    ASSERT_TRUE(latest.has_value());
    ServePayload good;
    ASSERT_TRUE(parsePayload(latest->payload, good));
    ASSERT_EQ(writePayload(good), latest->payload);
    // The live service is ahead of its last checkpoint, so an accepted
    // restore would visibly rewind it.
    ASSERT_NE(good.frontier, svc.ring().frontier());

    const std::uint64_t frontier = svc.ring().frontier();
    const std::uint64_t committed = svc.committedEpoch();
    const std::uint64_t digest = svc.digest();
    const power::Assignment assignment = svc.assignment();
    std::uint64_t epoch = 100; // newer than anything drive() committed
    const auto commit = [&](const ServePayload &p) {
        ASSERT_TRUE(serve::writeCheckpointFile(
            dir, svc.shapeFingerprint(), ++epoch, writePayload(p),
            nullptr));
    };
    const auto expectRefused = [&](const ServePayload &bad,
                                   const char *what) {
        commit(bad);
        EXPECT_FALSE(svc.restoreLatest()) << what;
        EXPECT_EQ(svc.ring().frontier(), frontier) << what;
        EXPECT_EQ(svc.committedEpoch(), committed) << what;
        EXPECT_EQ(svc.digest(), digest) << what;
        EXPECT_EQ(svc.assignment(), assignment) << what;
    };

    ServePayload bad = good;
    bad.counters.resize(7);
    expectRefused(bad, "short counter vector");

    bad = good;
    bad.assign[0] = tree.nodeCount();
    expectRefused(bad, "assignment entry outside the tree");

    bad = good;
    const std::size_t window = svc.config().window;
    const std::size_t slot = good.frontier % window; // instance 0
    ASSERT_EQ(bad.fills[slot], good.frontier);
    bad.fills[slot] -= window;
    expectRefused(bad, "fill tick off by one window");

    // The unmodified payload still restores.
    commit(good);
    ASSERT_TRUE(svc.restoreLatest());
    EXPECT_EQ(svc.ring().frontier(), good.frontier);
    EXPECT_EQ(svc.digest(), good.digest);
}

TEST(ServeService, RestoreRefusesImpossibleMonitorStateAndQueue)
{
    const std::string dir = freshDir("impossible");
    power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    auto initial = baseline::obliviousPlacement(tree, service_of);
    serve::Service svc(tree, service_of, initial, 60, tinyConfig(dir));
    drive(svc, 0, 20);
    // Two boundaries (24, 30) queue up unprocessed, so the checkpoint
    // committed after epoch 4 still holds epoch 5 in its queue.
    for (std::uint64_t t = 21; t <= 30; ++t) {
        svc.advanceTo(t);
        for (std::size_t i = 0; i < kInstances; ++i)
            svc.ingest({t, i, feedWatts(i, t)});
    }
    ASSERT_EQ(svc.queueDepth(), 2u);
    svc.processReadyEpochs();
    const auto slot = serve::readCheckpointFile(
        serve::checkpointSlotPath(dir, 0), svc.shapeFingerprint(), nullptr);
    ASSERT_TRUE(slot.has_value());
    ServePayload good;
    ASSERT_TRUE(parsePayload(slot->payload, good));
    ASSERT_EQ(good.committed, 4u);
    ASSERT_EQ(good.queue.size(), 1u);
    ASSERT_EQ(good.queue[0].epoch, 5u);
    ASSERT_EQ(good.queue[0].lastTick, 29u);
    ASSERT_EQ(good.baselineWindow.size(), 2u);
    ASSERT_GE(good.weekCounter, 2u);

    // Run the live service past the fixture so a restore that wrote
    // anything before refusing would show.
    drive(svc, 31, 40);
    ASSERT_NE(svc.ring().frontier(), good.frontier);
    ASSERT_NE(svc.committedEpoch(), good.committed);
    const std::uint64_t frontier = svc.ring().frontier();
    const std::uint64_t committed = svc.committedEpoch();
    const std::uint64_t digest = svc.digest();
    const power::Assignment assignment = svc.assignment();
    std::uint64_t epoch = 100; // newer than anything drive() committed
    const auto commit = [&](const ServePayload &p) {
        ASSERT_TRUE(serve::writeCheckpointFile(
            dir, svc.shapeFingerprint(), ++epoch, writePayload(p),
            nullptr));
    };
    const auto expectRefused = [&](const ServePayload &bad,
                                   const char *what) {
        commit(bad);
        EXPECT_FALSE(svc.restoreLatest()) << what;
        EXPECT_EQ(svc.ring().frontier(), frontier) << what;
        EXPECT_EQ(svc.committedEpoch(), committed) << what;
        EXPECT_EQ(svc.digest(), digest) << what;
        EXPECT_EQ(svc.assignment(), assignment) << what;
    };

    ServePayload bad = good;
    bad.baselineWindow.assign(50, kNaN);
    expectRefused(bad, "50 NaN ratios");

    bad = good;
    bad.baselineWindow[1] = kNaN;
    expectRefused(bad, "a NaN ratio inside the window's length");

    bad = good;
    bad.baselineWindow[0] = 0.0;
    expectRefused(bad, "a zero ratio");

    bad = good;
    bad.baselineWindow.push_back(good.baselineWindow[0]);
    expectRefused(bad, "a window longer than baselineWindowWeeks");

    bad = good;
    bad.weekCounter = 0;
    expectRefused(bad, "week counter 0 beside a two-ratio window");

    bad = good;
    bad.weekCounter = ~std::uint64_t{0};
    expectRefused(bad, "more weeks counted than epochs committed");

    bad = good;
    bad.queue[0].lastTick += 1;
    expectRefused(bad, "snapshot lastTick off by one");

    bad = good;
    bad.queue[0].epoch = good.committed;
    bad.queue[0].lastTick = good.committed * svc.config().epochTicks - 1;
    expectRefused(bad, "queued epoch not above the committed one");

    // The unmodified payload restores, queue included.
    commit(good);
    ASSERT_TRUE(svc.restoreLatest());
    EXPECT_EQ(svc.committedEpoch(), good.committed);
    EXPECT_EQ(svc.queueDepth(), 1u);
}

TEST(ServeService, IngestCountersPublishedOnce)
{
    const std::vector<IngestStatus> rejections = {
        IngestStatus::RejectedStale,     IngestStatus::RejectedFuture,
        IngestStatus::RejectedDuplicate, IngestStatus::RejectedNonFinite,
        IngestStatus::RejectedNegative,
        IngestStatus::RejectedUnknownInstance};
    using Counts = std::map<std::string, std::uint64_t>;
    const auto registryCounts = [&] {
        Counts c;
        for (const char *name : {"accepted", "late"})
            c[name] = obs::registry()
                          .counter(std::string("serve.ingest.") + name)
                          .value();
        for (const IngestStatus r : rejections)
            c[serve::ingestStatusName(r)] =
                obs::registry()
                    .counter("serve.ingest." + serve::ingestStatusName(r))
                    .value();
        return c;
    };
    const auto ringCounts = [&](const StreamRing &ring) {
        Counts c{{"accepted", ring.acceptedCount()},
                 {"late", ring.lateCount()}};
        for (const IngestStatus r : rejections)
            c[serve::ingestStatusName(r)] = ring.rejectedCount(r);
        return c;
    };
    const auto delta = [](const Counts &after, const Counts &before) {
        Counts d;
        for (const auto &[name, value] : after)
            d[name] = value - before.at(name);
        return d;
    };

    const std::string dir = freshDir("published");
    power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    auto initial = baseline::obliviousPlacement(tree, service_of);
    {
        const Counts before = registryCounts();
        serve::Service svc(tree, service_of, initial, 60,
                           tinyConfig(dir));
        drive(svc, 0, 20);
        svc.processReadyEpochs();
        EXPECT_GT(svc.ring().acceptedCount(), 0u);
        EXPECT_EQ(delta(registryCounts(), before), ringCounts(svc.ring()));
    }

    // A restored ring resumes with the checkpoint's counts; the
    // registry only sees what this process ingests after the restore.
    serve::Service svc(tree, service_of, initial, 60, tinyConfig(dir));
    ASSERT_TRUE(svc.restoreLatest());
    const Counts restored = ringCounts(svc.ring());
    EXPECT_GT(restored.at("accepted"), 0u);
    const Counts before = registryCounts();
    drive(svc, svc.ring().frontier() + 1, 40);
    svc.processReadyEpochs();
    EXPECT_EQ(delta(registryCounts(), before),
              delta(ringCounts(svc.ring()), restored));
}

/** FNV-1a of a whole file's bytes. */
std::uint64_t
fileFingerprint(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_FALSE(bytes.empty()) << path;
    return util::fnv1a64(bytes.data(), bytes.size());
}

/**
 * Pin of both checkpoint slot files for the fixed scenario at 20
 * ticks.  The fill ticks in the payload are derived from the slots, so
 * this guards that they match the recorded ticks byte for byte; a
 * change here is a checkpoint format change.
 */
TEST(ServeCheckpoint, BytesPinned)
{
    const std::string dir = freshDir("pinned");
    power::PowerTree tree(tinyTopology());
    const auto service_of = tinyServices();
    auto initial = baseline::obliviousPlacement(tree, service_of);
    serve::Service svc(tree, service_of, initial, 60, tinyConfig(dir));
    drive(svc, 0, 20);
    EXPECT_EQ(fileFingerprint(serve::checkpointSlotPath(dir, 0)),
              0x606e86f47266c9f1ull);
    EXPECT_EQ(fileFingerprint(serve::checkpointSlotPath(dir, 1)),
              0x88520d4263cf4e1full);
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

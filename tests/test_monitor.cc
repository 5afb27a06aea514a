/**
 * @file
 * Tests for the continuous fragmentation monitor (section 3.6).
 */

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "cluster/shape_index.h"
#include "core/monitor.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "obs/events.h"
#include "obs/obs.h"
#include "trace/arena.h"
#include "trace/repair.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generator.h"

namespace {

using namespace sosim;
using core::FragmentationMonitor;
using core::MonitorAction;
using core::MonitorConfig;
using sosim::trace::TimeSeries;
using sosim::util::FatalError;

power::TopologySpec
tinyTopology()
{
    power::TopologySpec spec;
    spec.suites = 1;
    spec.msbsPerSuite = 1;
    spec.sbsPerMsb = 1;
    spec.rppsPerSb = 2;
    spec.racksPerRpp = 1; // 2 racks, 2 RPPs.
    return spec;
}

/** Two instances: day-peaking and night-peaking, with a mix knob. */
std::vector<TimeSeries>
weekTraces(double phase_mix)
{
    // phase_mix = 0: perfectly complementary; 1: fully synchronous.
    std::vector<double> a{1.0, 0.2};
    std::vector<double> b{0.2 + 0.8 * phase_mix, 1.0 - 0.8 * phase_mix};
    return {TimeSeries(a, 60), TimeSeries(b, 60)};
}

TEST(Monitor, ActionNames)
{
    EXPECT_EQ(core::monitorActionName(MonitorAction::None), "none");
    EXPECT_EQ(core::monitorActionName(MonitorAction::Remap), "remap");
    EXPECT_EQ(core::monitorActionName(MonitorAction::Replace), "replace");
}

TEST(Monitor, ValidatesConfig)
{
    power::PowerTree tree(tinyTopology());
    MonitorConfig bad;
    bad.baselineWindowWeeks = 0;
    EXPECT_THROW(FragmentationMonitor(tree, bad), FatalError);
    bad = MonitorConfig{};
    bad.remapThreshold = 0.5;
    bad.replaceThreshold = 0.1;
    EXPECT_THROW(FragmentationMonitor(tree, bad), FatalError);
    bad = MonitorConfig{};
    bad.level = power::Level::Datacenter;
    EXPECT_THROW(FragmentationMonitor(tree, bad), FatalError);
}

TEST(Monitor, FirstWeekIsAlwaysQuiet)
{
    power::PowerTree tree(tinyTopology());
    FragmentationMonitor monitor(tree);
    power::Assignment assignment{tree.racks()[0], tree.racks()[1]};
    const auto obs = monitor.observeWeek(weekTraces(1.0), assignment);
    EXPECT_EQ(obs.action, MonitorAction::None);
    EXPECT_EQ(obs.week, 0u);
    EXPECT_GT(obs.fragmentationRatio, 0.0);
}

TEST(Monitor, StableWeeksStayQuiet)
{
    power::PowerTree tree(tinyTopology());
    FragmentationMonitor monitor(tree);
    power::Assignment assignment{tree.racks()[0], tree.racks()[1]};
    std::size_t observed = 0;
    for (int w = 0; w < 6; ++w) {
        const auto obs =
            monitor.observeWeek(weekTraces(0.0), assignment);
        EXPECT_EQ(obs.action, MonitorAction::None) << "week " << w;
        EXPECT_EQ(obs.week, observed++);
    }
    EXPECT_EQ(observed, 6u);
}

TEST(Monitor, DriftTriggersRemapThenReplace)
{
    power::PowerTree tree(tinyTopology());
    MonitorConfig config;
    config.remapThreshold = 0.05;
    config.replaceThreshold = 0.25;
    FragmentationMonitor monitor(tree, config);
    power::Assignment assignment{tree.racks()[0], tree.racks()[1]};

    // Start synchronous: both RPPs peak together, so the sum of RPP
    // peaks equals the root peak (ratio 1, Figure 1's "efficient"
    // datacenter).  Drift pulls instance b's peak to the other slot:
    // RPP peaks disperse in time, the ratio rises above 1, and the
    // placement fragments the budget.
    monitor.observeWeek(weekTraces(1.0), assignment);
    const auto mild = monitor.observeWeek(weekTraces(0.3), assignment);
    EXPECT_EQ(mild.action, MonitorAction::Remap);
    const auto severe = monitor.observeWeek(weekTraces(0.0), assignment);
    EXPECT_EQ(severe.action, MonitorAction::Replace);
}

TEST(Monitor, RatioCancelsUniformTrafficGrowth)
{
    // Scaling every trace by 1.5x changes peaks but not the ratio, so
    // pure load growth must not trigger action.
    power::PowerTree tree(tinyTopology());
    FragmentationMonitor monitor(tree);
    power::Assignment assignment{tree.racks()[0], tree.racks()[1]};
    const auto week1 = monitor.observeWeek(weekTraces(0.5), assignment);
    auto grown = weekTraces(0.5);
    for (auto &t : grown)
        t *= 1.5;
    const auto week2 = monitor.observeWeek(grown, assignment);
    EXPECT_NEAR(week1.fragmentationRatio, week2.fragmentationRatio,
                1e-9);
    EXPECT_EQ(week2.action, MonitorAction::None);
    EXPECT_GT(week2.sumOfPeaks, week1.sumOfPeaks);
}

TEST(Monitor, PlacementUpdatedResetsBaseline)
{
    power::PowerTree tree(tinyTopology());
    MonitorConfig config;
    config.remapThreshold = 0.02;
    FragmentationMonitor monitor(tree, config);
    power::Assignment assignment{tree.racks()[0], tree.racks()[1]};
    monitor.observeWeek(weekTraces(1.0), assignment);
    // After a re-place, the (worse but freshly accepted) state must not
    // keep re-triggering against the stale, better baseline.
    monitor.placementUpdated();
    const auto obs = monitor.observeWeek(weekTraces(0.2), assignment);
    EXPECT_EQ(obs.action, MonitorAction::None);
}

TEST(Monitor, SlidingWindowForgetsOldBest)
{
    power::PowerTree tree(tinyTopology());
    MonitorConfig config;
    config.baselineWindowWeeks = 2;
    config.remapThreshold = 0.05;
    FragmentationMonitor monitor(tree, config);
    power::Assignment assignment{tree.racks()[0], tree.racks()[1]};
    // Excellent (synchronous, ratio 1) week, then fragmented weeks.
    // While the excellent week sits in the window they trigger; once it
    // slides out, the fragmented state becomes the new normal.
    monitor.observeWeek(weekTraces(1.0), assignment);
    const auto w2 = monitor.observeWeek(weekTraces(0.0), assignment);
    EXPECT_NE(w2.action, MonitorAction::None);
    monitor.observeWeek(weekTraces(0.0), assignment);
    const auto w4 = monitor.observeWeek(weekTraces(0.0), assignment);
    EXPECT_EQ(w4.action, MonitorAction::None);
}

TEST(Monitor, MovedMonitorKeepsObserving)
{
    // Moving a monitor after an observation and destroying the source
    // must leave the new monitor judging exactly like one never moved.
    power::PowerTree tree(tinyTopology());
    power::Assignment assignment{tree.racks()[0], tree.racks()[1]};
    FragmentationMonitor still(tree);
    still.observeWeek(weekTraces(0.0), assignment);
    const auto expected = still.observeWeek(weekTraces(0.5), assignment);

    auto source = std::make_unique<FragmentationMonitor>(tree);
    source->observeWeek(weekTraces(0.0), assignment);
    FragmentationMonitor moved(std::move(*source));
    source.reset();
    const auto got = moved.observeWeek(weekTraces(0.5), assignment);

    EXPECT_EQ(got.week, expected.week);
    EXPECT_EQ(got.action, expected.action);
    EXPECT_EQ(got.sumOfPeaks, expected.sumOfPeaks);
    EXPECT_EQ(got.rootPeak, expected.rootPeak);
    EXPECT_EQ(got.fragmentationRatio, expected.fragmentationRatio);
    // The moved monitor carried the source's one observation along.
    EXPECT_EQ(got.week, 1u);
}

// ---------------------------------------------------------------------
// measureWeek against the body it replaced: one repair path must give
// every measurement field, and the same events, bit for bit.

/**
 * The former measureWeek body, kept as the oracle.  A clean week
 * aggregated its own series; a week with a gap was copied into a
 * TraceArena, rows below the floor zero-filled and the others repaired,
 * and the drift embedding and the view aggregation read that arena.
 */
core::MonitorMeasurement
measureWeekOracle(const power::PowerTree &tree,
                  const MonitorConfig &config,
                  const std::vector<TimeSeries> &itraces,
                  const power::Assignment &assignment,
                  const cluster::ShapeIndex *training)
{
    core::MonitorMeasurement m;
    const bool want_drift = training != nullptr && !training->empty();
    const auto driftOf = [&](const std::vector<const double *> &rows,
                             std::size_t samples) {
        return cluster::ShapeIndex::build(rows, samples,
                                          training->buckets())
            .meanDriftFrom(*training);
    };

    double valid_sum = 0.0;
    bool any_gap = false;
    std::vector<double> validity(itraces.size(), 1.0);
    for (std::size_t i = 0; i < itraces.size(); ++i) {
        validity[i] = trace::validFraction(itraces[i]);
        valid_sum += validity[i];
        any_gap = any_gap || validity[i] < 1.0;
    }
    m.validFraction = itraces.empty()
                          ? 1.0
                          : valid_sum /
                                static_cast<double>(itraces.size());

    std::vector<TimeSeries> node_traces;
    if (any_gap) {
        m.degradedData = true;
        trace::TraceArena repaired =
            trace::TraceArena::fromSeries(itraces);
        for (std::size_t i = 0; i < repaired.size(); ++i) {
            if (validity[i] >= 1.0)
                continue;
            double *row = repaired.mutableRow(i);
            if (validity[i] < trace::kMinValidFraction) {
                std::fill(row, row + repaired.samplesPerTrace(), 0.0);
                ++m.excludedInstances;
                SOSIM_EVENT(.kind = obs::EventKind::MonitorExclude,
                            .a = i, .x = validity[i]);
                continue;
            }
            // The row was repaired in place by repairSeries' span core;
            // a round trip through a series computes the same fill.
            TimeSeries series(
                std::vector<double>(row, row + repaired.samplesPerTrace()),
                repaired.intervalMinutes());
            const auto r =
                trace::repairSeries(series, core::kMonitorRepairPolicy);
            std::copy(series.samples().begin(), series.samples().end(), row);
            m.repairedSamples += r.samplesRepaired;
            if (r.samplesRepaired > 0)
                SOSIM_EVENT(.kind = obs::EventKind::FaultRepair,
                            .a = i, .b = r.samplesRepaired);
        }
        if (want_drift) {
            std::vector<const double *> rows(repaired.size());
            for (trace::TraceId id = 0; id < repaired.size(); ++id)
                rows[id] = repaired.row(id);
            m.shapeDrift = driftOf(rows, repaired.samplesPerTrace());
        }
        std::vector<trace::TraceView> views;
        views.reserve(repaired.size());
        for (trace::TraceId id = 0; id < repaired.size(); ++id)
            views.push_back(repaired.view(id));
        node_traces = tree.aggregateTraces(views, assignment);
    } else {
        if (want_drift && !itraces.empty()) {
            std::vector<const double *> rows(itraces.size());
            for (std::size_t i = 0; i < itraces.size(); ++i)
                rows[i] = itraces[i].samples().data();
            m.shapeDrift =
                driftOf(rows, itraces.front().samples().size());
        }
        node_traces = tree.aggregateTraces(itraces, assignment);
    }
    m.sumOfPeaks = tree.sumOfPeaks(node_traces, config.level);
    m.rootPeak = node_traces[tree.root()].peak();
    if (m.rootPeak <= 0.0) {
        m.degradedData = true;
        m.fragmentationRatio = 0.0;
        return m;
    }
    m.fragmentationRatio = m.sumOfPeaks / m.rootPeak;
    return m;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectSameMeasurement(const core::MonitorMeasurement &got,
                      const core::MonitorMeasurement &want)
{
    EXPECT_TRUE(sameBits(got.sumOfPeaks, want.sumOfPeaks));
    EXPECT_TRUE(sameBits(got.rootPeak, want.rootPeak));
    EXPECT_TRUE(sameBits(got.fragmentationRatio, want.fragmentationRatio));
    EXPECT_EQ(got.degradedData, want.degradedData);
    EXPECT_TRUE(sameBits(got.validFraction, want.validFraction));
    EXPECT_EQ(got.repairedSamples, want.repairedSamples);
    EXPECT_EQ(got.excludedInstances, want.excludedInstances);
    EXPECT_TRUE(sameBits(got.shapeDrift, want.shapeDrift));
}

/** The repair and exclude events one call records, in order. */
using RepairEvent = std::tuple<obs::EventKind, std::uint64_t,
                               std::uint64_t, double>;

template <typename F>
std::vector<RepairEvent>
recordedRepairEvents(F &&measure)
{
    auto &rec = obs::EventRecorder::instance();
    rec.reset();
    rec.setEnabled(true);
    measure();
    rec.setEnabled(false);
    std::vector<RepairEvent> out;
    for (const obs::Event &e : rec.collect(true).events)
        if (e.kind == obs::EventKind::FaultRepair ||
            e.kind == obs::EventKind::MonitorExclude)
            out.emplace_back(e.kind, e.a, e.b, e.x);
    rec.reset();
    return out;
}

/** A generated population, its tree, placement and training index. */
struct OracleFixture {
    power::PowerTree tree;
    power::Assignment assignment;
    std::vector<TimeSeries> training;
    cluster::ShapeIndex index;
    std::vector<TimeSeries> week;
};

OracleFixture
oracleFixture()
{
    workload::DatacenterSpec spec;
    spec.name = "monitor-oracle";
    spec.topology = {1, 2, 2, 2, 2};
    spec.intervalMinutes = 60;
    spec.weeks = 2;
    spec.seed = 26;
    spec.services.push_back({workload::webFrontend(), 24});
    spec.services.push_back({workload::dbBackend(), 24});
    spec.services.push_back({workload::hadoop(), 16});
    const auto dc = workload::generate(spec);
    power::PowerTree tree(spec.topology);
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < service_of.size(); ++i)
        service_of[i] = dc.serviceOf(i);
    auto assignment = baseline::obliviousPlacement(tree, service_of);
    auto training = dc.trainingTraces();
    std::vector<const double *> rows(training.size());
    for (std::size_t i = 0; i < training.size(); ++i)
        rows[i] = training[i].samples().data();
    auto index =
        cluster::ShapeIndex::build(rows, training.front().size());
    auto week = dc.testTraces();
    return {std::move(tree), std::move(assignment), std::move(training),
            std::move(index), std::move(week)};
}

/** The four kinds of week: clean, mild and harsh faults, and one where
 *  every instance falls below the validity floor. */
std::vector<std::pair<std::string, std::vector<TimeSeries>>>
oracleWeeks(const std::vector<TimeSeries> &week)
{
    std::vector<std::pair<std::string, std::vector<TimeSeries>>> weeks;
    weeks.emplace_back("clean", week);
    const fault::TraceShape shape{week.size(), week.front().size()};
    for (const char *profile : {"mild", "harsh"})
        weeks.emplace_back(
            profile, fault::injectedCopy(
                         week, fault::FaultPlan::build(
                                   11, fault::faultProfile(profile), shape))
                         .traces);
    auto floor = week;
    for (auto &t : floor)
        for (std::size_t s = 0; s < t.size() * 6 / 10; ++s)
            t[s] = std::numeric_limits<double>::quiet_NaN();
    weeks.emplace_back("below-floor", std::move(floor));
    return weeks;
}

TEST(MonitorOracle, SinglePathMatchesFormerBodyBitForBit)
{
    const auto f = oracleFixture();
    const MonitorConfig config;
    for (const std::size_t threads : {1, 4}) {
        util::setThreadCount(threads);
        for (const auto &[name, week] : oracleWeeks(f.week)) {
            SCOPED_TRACE(name + " week, " + std::to_string(threads) +
                         " threads");
            for (const cluster::ShapeIndex *training :
                 {static_cast<const cluster::ShapeIndex *>(nullptr),
                  &f.index}) {
                core::MonitorMeasurement got, want;
                const auto got_events = recordedRepairEvents([&] {
                    got = core::measureWeek(f.tree, config, week,
                                            f.assignment, training);
                });
                const auto want_events = recordedRepairEvents([&] {
                    want = measureWeekOracle(f.tree, config, week,
                                             f.assignment, training);
                });
                expectSameMeasurement(got, want);
                EXPECT_EQ(got_events, want_events);
            }
        }
    }
    util::setThreadCount(0);
}

TEST(MonitorOracle, WeeksCoverEveryPath)
{
    // The oracle comparison is only as good as its weeks: one clean,
    // two repaired with some instances excluded, one with no powered
    // instance at all.
    const auto f = oracleFixture();
    const auto weeks = oracleWeeks(f.week);
    const auto measure = [&](std::size_t w) {
        return core::measureWeek(f.tree, {}, weeks[w].second,
                                 f.assignment);
    };
    EXPECT_FALSE(measure(0).degradedData);
    for (const std::size_t w : {1, 2}) {
        const auto m = measure(w);
        EXPECT_TRUE(m.degradedData) << weeks[w].first;
        EXPECT_GT(m.repairedSamples, 0u) << weeks[w].first;
        EXPECT_GT(m.fragmentationRatio, 0.0) << weeks[w].first;
    }
    EXPECT_GT(measure(2).excludedInstances, 0u);
    const auto floor = measure(3);
    EXPECT_EQ(floor.excludedInstances, f.week.size());
    EXPECT_EQ(floor.fragmentationRatio, 0.0);
}

TEST(MonitorOracle, RepairedCopyIsTheRepairLayersCopy)
{
    // The owning form repairs the week it is handed in place: it
    // measures and records exactly what the borrowing form does, and
    // leaves the rows trace::repairedCopy's and the validity its
    // validBefore.  A clean week's rows stay as they were, with no
    // validity.
    const auto f = oracleFixture();
    const MonitorConfig config;
    for (const auto &[name, week] : oracleWeeks(f.week)) {
        SCOPED_TRACE(name + " week");
        core::MonitorMeasurement borrowed, owned;
        const auto borrowed_events = recordedRepairEvents([&] {
            borrowed = core::measureWeek(f.tree, config, week, f.assignment,
                                         &f.index);
        });
        core::OwnedWeek mine{week, {0.5}}; // Stale validity must go.
        const double *first_row = mine.traces.front().samples().data();
        const auto owned_events = recordedRepairEvents([&] {
            owned = core::measureWeek(f.tree, config, mine, f.assignment,
                                      &f.index);
        });
        expectSameMeasurement(owned, borrowed);
        EXPECT_EQ(owned_events, borrowed_events);
        EXPECT_EQ(mine.traces.front().samples().data(), first_row)
            << "the rows were replaced, not repaired in place";

        const bool clean = name == "clean";
        const auto want =
            trace::repairedCopy(week, core::kMonitorRepairPolicy);
        const auto &want_rows = clean ? week : want.traces;
        ASSERT_EQ(mine.traces.size(), want_rows.size());
        for (std::size_t i = 0; i < want_rows.size(); ++i) {
            ASSERT_EQ(mine.traces[i].size(), want_rows[i].size());
            EXPECT_EQ(mine.traces[i].intervalMinutes(),
                      want_rows[i].intervalMinutes());
            EXPECT_EQ(std::memcmp(mine.traces[i].samples().data(),
                                  want_rows[i].samples().data(),
                                  want_rows[i].size() * sizeof(double)),
                      0)
                << "instance " << i;
        }
        if (clean)
            EXPECT_TRUE(mine.validBefore.empty());
        else
            EXPECT_EQ(mine.validBefore, want.summary.validBefore);
    }
}

} // namespace

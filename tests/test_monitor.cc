/**
 * @file
 * Tests for the continuous fragmentation monitor (section 3.6).
 */

#include <memory>

#include <gtest/gtest.h>

#include "core/monitor.h"
#include "util/error.h"
#include "util/rng.h"

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
    for (int w = 0; w < 6; ++w) {
        const auto obs =
            monitor.observeWeek(weekTraces(0.0), assignment);
        EXPECT_EQ(obs.action, MonitorAction::None) << "week " << w;
    }
    EXPECT_EQ(monitor.history().size(), 6u);
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
    EXPECT_EQ(moved.history().size(), 2u);
}

} // namespace

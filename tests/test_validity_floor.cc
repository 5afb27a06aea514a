/**
 * @file
 * The one validity floor, trace::kMinValidFraction, read by both
 * degraded-data consumers: core::measureWeek drops an instance whose
 * valid fraction is below it from the week's aggregation, and
 * core::Remapper::refine never picks such an instance for a swap.  An
 * instance at exactly the floor passes both; one just below fails both.
 */

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/monitor.h"
#include "core/remap.h"
#include "power/power_tree.h"
#include "trace/repair.h"
#include "trace/time_series.h"

namespace {

using namespace sosim;
using trace::TimeSeries;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

power::PowerTree
twoRackTree()
{
    power::TopologySpec topo;
    topo.suites = 1;
    topo.msbsPerSuite = 1;
    topo.sbsPerMsb = 1;
    topo.rppsPerSb = 2;
    topo.racksPerRpp = 1;
    return power::PowerTree(topo);
}

/** A 100-sample trace of constant 5 whose first `valid` samples are
 *  measured and the rest lost. */
TimeSeries
partlyLost(std::size_t valid)
{
    std::vector<double> samples(100, kNaN);
    for (std::size_t i = 0; i < valid; ++i)
        samples[i] = 5.0;
    return TimeSeries(std::move(samples), 1);
}

TEST(ValidityFloor, MeasureWeekAggregatesAtTheFloorAndExcludesBelow)
{
    const auto tree = twoRackTree();
    const power::Assignment assignment{tree.racks()[0], tree.racks()[1]};
    const TimeSeries healthy = TimeSeries::constant(100, 1.0);

    const std::vector<TimeSeries> at_floor = {partlyLost(50), healthy};
    ASSERT_EQ(trace::validFraction(at_floor[0]), trace::kMinValidFraction);
    const auto kept = core::measureWeek(tree, {}, at_floor, assignment);
    EXPECT_TRUE(kept.degradedData);
    EXPECT_EQ(kept.excludedInstances, 0u);
    EXPECT_EQ(kept.repairedSamples, 50u);
    // The repaired instance (a constant 5) is in the aggregate.
    EXPECT_DOUBLE_EQ(kept.rootPeak, 6.0);

    const std::vector<TimeSeries> below = {partlyLost(49), healthy};
    ASSERT_LT(trace::validFraction(below[0]), trace::kMinValidFraction);
    const auto dropped = core::measureWeek(tree, {}, below, assignment);
    EXPECT_TRUE(dropped.degradedData);
    EXPECT_EQ(dropped.excludedInstances, 1u);
    EXPECT_EQ(dropped.repairedSamples, 0u);
    EXPECT_DOUBLE_EQ(dropped.rootPeak, 1.0);
}

TEST(ValidityFloor, RefineSwapsAtTheFloorAndFreezesBelow)
{
    const auto tree = twoRackTree();
    // Rack 0 holds two instances that peak together; rack 1 holds two
    // peaking elsewhere, so any cross swap improves both racks.
    // Instance 1 is gated out throughout: a swap then has to move
    // instance 0.
    const std::vector<TimeSeries> itraces = {
        TimeSeries({10.0, 0.0, 0.0, 0.0}, 1),
        TimeSeries({10.0, 0.0, 0.0, 0.0}, 1),
        TimeSeries({0.0, 0.0, 10.0, 0.0}, 1),
        TimeSeries({0.0, 0.0, 10.0, 0.0}, 1)};
    const power::Assignment initial{tree.racks()[0], tree.racks()[0],
                                    tree.racks()[1], tree.racks()[1]};
    const core::Remapper remapper(tree, {});

    power::Assignment ungated = initial;
    ASSERT_FALSE(remapper.refine(ungated, itraces).empty());

    // At exactly the floor instance 0 is swappable.
    const std::vector<double> at_floor{trace::kMinValidFraction, 0.0, 1.0,
                                       1.0};
    power::Assignment kept = initial;
    remapper.refine(kept, itraces, &at_floor);
    EXPECT_NE(kept[0], initial[0]);

    // Just below the floor nothing in rack 0 can leave.
    const std::vector<double> below{
        std::nextafter(trace::kMinValidFraction, 0.0), 0.0, 1.0, 1.0};
    power::Assignment frozen = initial;
    EXPECT_TRUE(remapper.refine(frozen, itraces, &below).empty());
    EXPECT_EQ(frozen, initial);
}

} // namespace

/**
 * @file
 * Unit tests for the power module: levels, tree construction, aggregate
 * trace computation, slack metrics, and the breaker model.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "power/breaker.h"
#include "power/level.h"
#include "power/metrics.h"
#include "power/power_tree.h"
#include "trace/arena.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace sosim::power;
using sosim::trace::TimeSeries;
using sosim::util::FatalError;

TEST(Level, NamesAreStable)
{
    EXPECT_EQ(levelName(Level::Datacenter), "DC");
    EXPECT_EQ(levelName(Level::Suite), "SUITE");
    EXPECT_EQ(levelName(Level::Msb), "MSB");
    EXPECT_EQ(levelName(Level::Sb), "SB");
    EXPECT_EQ(levelName(Level::Rpp), "RPP");
    EXPECT_EQ(levelName(Level::Rack), "RACK");
}

TEST(Level, AboveAndBelowNavigate)
{
    EXPECT_EQ(levelBelow(Level::Datacenter), Level::Suite);
    EXPECT_EQ(levelBelow(Level::Rpp), Level::Rack);
    EXPECT_EQ(levelAbove(Level::Rack), Level::Rpp);
    EXPECT_EQ(levelAbove(Level::Suite), Level::Datacenter);
    EXPECT_THROW(levelBelow(Level::Rack), FatalError);
    EXPECT_THROW(levelAbove(Level::Datacenter), FatalError);
}

TEST(Level, DepthIsOrdinal)
{
    EXPECT_EQ(levelDepth(Level::Datacenter), 0);
    EXPECT_EQ(levelDepth(Level::Rack), 5);
    EXPECT_EQ(static_cast<int>(kAllLevels.size()), kNumLevels);
}

TopologySpec
tinySpec()
{
    TopologySpec spec;
    spec.suites = 2;
    spec.msbsPerSuite = 2;
    spec.sbsPerMsb = 1;
    spec.rppsPerSb = 2;
    spec.racksPerRpp = 2;
    return spec;
}

TEST(PowerTree, NodeCountsMatchTopology)
{
    const PowerTree tree(tinySpec());
    EXPECT_EQ(tree.nodesAtLevel(Level::Datacenter).size(), 1u);
    EXPECT_EQ(tree.nodesAtLevel(Level::Suite).size(), 2u);
    EXPECT_EQ(tree.nodesAtLevel(Level::Msb).size(), 4u);
    EXPECT_EQ(tree.nodesAtLevel(Level::Sb).size(), 4u);
    EXPECT_EQ(tree.nodesAtLevel(Level::Rpp).size(), 8u);
    EXPECT_EQ(tree.racks().size(), 16u);
    EXPECT_EQ(tree.spec().totalRacks(), 16);
    EXPECT_EQ(tree.nodeCount(), 1u + 2 + 4 + 4 + 8 + 16);
}

TEST(PowerTree, RejectsDegenerateTopology)
{
    TopologySpec spec = tinySpec();
    spec.rppsPerSb = 0;
    EXPECT_THROW(PowerTree{spec}, FatalError);
}

TEST(PowerTree, ParentChildLinksAreConsistent)
{
    const PowerTree tree(tinySpec());
    EXPECT_EQ(tree.node(tree.root()).parent, kNoNode);
    for (NodeId id = 1; id < tree.nodeCount(); ++id) {
        const auto &n = tree.node(id);
        ASSERT_NE(n.parent, kNoNode);
        const auto &p = tree.node(n.parent);
        EXPECT_EQ(levelDepth(n.level), levelDepth(p.level) + 1);
        EXPECT_NE(std::find(p.children.begin(), p.children.end(), id),
                  p.children.end());
    }
    EXPECT_THROW(tree.node(tree.nodeCount()), FatalError);
}

TEST(PowerTree, NamesEncodePath)
{
    const PowerTree tree(tinySpec());
    EXPECT_EQ(tree.node(tree.root()).name, "dc");
    const auto first_rack = tree.racks().front();
    EXPECT_EQ(tree.node(first_rack).name,
              "suite0/msb0/sb0/rpp0/rack0");
}

TEST(PowerTree, RacksUnderSubtree)
{
    const PowerTree tree(tinySpec());
    const auto all = tree.racksUnder(tree.root());
    EXPECT_EQ(all.size(), 16u);
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));

    const auto suite0 = tree.nodesAtLevel(Level::Suite).front();
    const auto under_suite = tree.racksUnder(suite0);
    EXPECT_EQ(under_suite.size(), 8u);

    const auto rack = tree.racks().front();
    const auto self = tree.racksUnder(rack);
    ASSERT_EQ(self.size(), 1u);
    EXPECT_EQ(self.front(), rack);
}

TEST(PowerTree, AggregateTracesSumBottomUp)
{
    const PowerTree tree(tinySpec());
    const auto &racks = tree.racks();
    // Two instances on the first rack, one on the last.
    std::vector<TimeSeries> traces = {
        TimeSeries({1.0, 2.0}, 5),
        TimeSeries({3.0, 1.0}, 5),
        TimeSeries({5.0, 5.0}, 5),
    };
    Assignment assignment{racks.front(), racks.front(), racks.back()};
    const auto node_traces = tree.aggregateTraces(traces, assignment);

    EXPECT_DOUBLE_EQ(node_traces[racks.front()][0], 4.0);
    EXPECT_DOUBLE_EQ(node_traces[racks.front()][1], 3.0);
    EXPECT_DOUBLE_EQ(node_traces[racks.back()][0], 5.0);
    // Root aggregates everything.
    EXPECT_DOUBLE_EQ(node_traces[tree.root()][0], 9.0);
    EXPECT_DOUBLE_EQ(node_traces[tree.root()][1], 8.0);
    // Parents equal the sum of their children everywhere.
    for (NodeId id = 0; id < tree.nodeCount(); ++id) {
        const auto &n = tree.node(id);
        if (n.children.empty())
            continue;
        for (std::size_t t = 0; t < 2; ++t) {
            double child_sum = 0.0;
            for (const auto c : n.children)
                child_sum += node_traces[c][t];
            EXPECT_DOUBLE_EQ(node_traces[id][t], child_sum);
        }
    }
}

TEST(PowerTree, AggregateTracesOverViewsMatchesRackSumsBitForBit)
{
    // The series overload views its series and runs the one view loop;
    // both must equal the sum the former series loop computed with
    // TimeSeries::+= (instances into racks in index order, then a
    // reverse id sweep), for views of owned series and of arena rows.
    const PowerTree tree(tinySpec());
    const auto &racks = tree.racks();
    sosim::util::Rng rng(26);
    std::vector<TimeSeries> traces;
    Assignment assignment;
    for (std::size_t i = 0; i < 40; ++i) {
        std::vector<double> samples(37);
        for (double &v : samples)
            v = rng.uniform(0.0, 3.0);
        traces.emplace_back(std::move(samples), 15);
        assignment.push_back(racks[rng.uniformInt(
            0, static_cast<std::int64_t>(racks.size()) - 1)]);
    }

    std::vector<TimeSeries> want(tree.nodeCount(),
                                 TimeSeries::zeros(37, 15));
    for (std::size_t i = 0; i < traces.size(); ++i)
        want[assignment[i]] += traces[i];
    for (NodeId id = tree.nodeCount(); id-- > 1;)
        want[tree.node(id).parent] += want[id];

    const auto arena = sosim::trace::TraceArena::fromSeries(traces);
    std::vector<sosim::trace::TraceView> arena_views;
    for (std::size_t i = 0; i < arena.size(); ++i)
        arena_views.push_back(arena.view(i));
    for (const auto &got : {tree.aggregateTraces(traces, assignment),
                            tree.aggregateTraces(arena_views, assignment)}) {
        ASSERT_EQ(got.size(), want.size());
        for (NodeId id = 0; id < want.size(); ++id) {
            ASSERT_EQ(got[id].size(), 37u);
            EXPECT_EQ(got[id].intervalMinutes(), 15);
            EXPECT_EQ(std::memcmp(got[id].samples().data(),
                                  want[id].samples().data(),
                                  37 * sizeof(double)),
                      0)
                << "node " << id;
        }
    }
}

TEST(PowerTree, AggregateTracesValidatesInput)
{
    const PowerTree tree(tinySpec());
    std::vector<TimeSeries> traces = {TimeSeries({1.0}, 5)};
    // Assignment must cover instances.
    EXPECT_THROW(tree.aggregateTraces(traces, Assignment{}), FatalError);
    // Target must be a rack.
    EXPECT_THROW(tree.aggregateTraces(traces, Assignment{tree.root()}),
                 FatalError);
    // Misaligned traces rejected.
    std::vector<TimeSeries> bad = {TimeSeries({1.0}, 5),
                                   TimeSeries({1.0, 2.0}, 5)};
    Assignment two{tree.racks()[0], tree.racks()[1]};
    EXPECT_THROW(tree.aggregateTraces(bad, two), FatalError);
}

TEST(PowerTree, SumOfPeaksByLevel)
{
    const PowerTree tree(tinySpec());
    const auto &racks = tree.racks();
    // Out-of-phase instances on two racks under different suites.
    std::vector<TimeSeries> traces = {
        TimeSeries({1.0, 0.0}, 5),
        TimeSeries({0.0, 1.0}, 5),
    };
    Assignment assignment{racks.front(), racks.back()};
    const auto node_traces = tree.aggregateTraces(traces, assignment);
    // Rack level: each peak is 1 -> sum 2 (plus 14 empty racks at 0).
    EXPECT_DOUBLE_EQ(tree.sumOfPeaks(node_traces, Level::Rack), 2.0);
    // DC level: the root sees 1.0 at both samples -> peak 1.
    EXPECT_DOUBLE_EQ(tree.sumOfPeaks(node_traces, Level::Datacenter), 1.0);
}

TEST(PowerTree, InstancesPerRack)
{
    const PowerTree tree(tinySpec());
    const auto &racks = tree.racks();
    Assignment assignment{racks[0], racks[0], racks[3]};
    const auto per_rack = tree.instancesPerRack(assignment);
    EXPECT_EQ(per_rack[racks[0]].size(), 2u);
    EXPECT_EQ(per_rack[racks[3]].size(), 1u);
    EXPECT_EQ(per_rack[racks[1]].size(), 0u);
    Assignment bad{tree.root()};
    EXPECT_THROW(tree.instancesPerRack(bad), FatalError);
}

TEST(Metrics, PowerSlackSeries)
{
    TimeSeries node({4.0, 6.0}, 5);
    const auto slack = sosim::power::powerSlack(node, 10.0);
    EXPECT_DOUBLE_EQ(slack[0], 6.0);
    EXPECT_DOUBLE_EQ(slack[1], 4.0);
    EXPECT_THROW(sosim::power::powerSlack(node, 0.0), FatalError);
}

TEST(Metrics, EnergySlackIsIntegralOfSlack)
{
    TimeSeries node({4.0, 6.0}, 5);
    EXPECT_DOUBLE_EQ(sosim::power::energySlack(node, 10.0),
                     (6.0 + 4.0) * 5.0);
    EXPECT_DOUBLE_EQ(sosim::power::averagePowerSlack(node, 10.0), 5.0);
}

TEST(Metrics, OffPeakSlackUsesLowSamplesOnly)
{
    TimeSeries node({1.0, 1.0, 9.0, 9.0}, 5);
    // Off-peak cutoff at the median: only the 1.0 samples count.
    const double off =
        sosim::power::offPeakPowerSlack(node, 10.0, 0.5);
    EXPECT_DOUBLE_EQ(off, 9.0);
    EXPECT_THROW(sosim::power::offPeakPowerSlack(node, 10.0, 0.0),
                 FatalError);
}

TEST(Metrics, PeakHeadroomFraction)
{
    TimeSeries node({5.0, 8.0}, 5);
    EXPECT_DOUBLE_EQ(sosim::power::peakHeadroomFraction(node, 10.0), 0.2);
}

TEST(Breaker, TripsOnFirstOverloadWhenImmediate)
{
    BreakerModel breaker(5.0, 0);
    TimeSeries trace({4.0, 5.5, 4.0}, 1);
    const auto trip = breaker.firstTripIndex(trace);
    ASSERT_TRUE(trip.has_value());
    EXPECT_EQ(*trip, 1u);
    EXPECT_TRUE(breaker.wouldTrip(trace));
    EXPECT_EQ(breaker.overloadSamples(trace), 1u);
}

TEST(Breaker, SustainedOverloadRequired)
{
    BreakerModel breaker(5.0, 3); // Three 1-minute samples required.
    TimeSeries blips({6.0, 4.0, 6.0, 4.0, 6.0, 4.0}, 1);
    EXPECT_FALSE(breaker.wouldTrip(blips));
    TimeSeries sustained({4.0, 6.0, 6.0, 6.0, 4.0}, 1);
    const auto trip = breaker.firstTripIndex(sustained);
    ASSERT_TRUE(trip.has_value());
    EXPECT_EQ(*trip, 3u);
}

TEST(Breaker, CoarseSamplesCountAsTheirDuration)
{
    // One 5-minute sample is already a 5-minute overload.
    BreakerModel breaker(5.0, 5);
    TimeSeries trace({6.0, 4.0}, 5);
    EXPECT_TRUE(breaker.wouldTrip(trace));
}

TEST(Breaker, NeverTripsUnderBudget)
{
    BreakerModel breaker(10.0, 0);
    TimeSeries trace({9.9, 10.0, 1.0}, 1); // Equal is not over.
    EXPECT_FALSE(breaker.wouldTrip(trace));
    EXPECT_EQ(breaker.overloadSamples(trace), 0u);
}

TEST(Breaker, RejectsBadParameters)
{
    EXPECT_THROW(BreakerModel(0.0, 0), FatalError);
    EXPECT_THROW(BreakerModel(1.0, -1), FatalError);
}

} // namespace

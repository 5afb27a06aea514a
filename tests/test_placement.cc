/**
 * @file
 * Tests for the placement engine (section 3.5), the remapper (section
 * 3.6), and headroom accounting, using small synthetic datacenters with
 * known-good answers.
 */

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "core/asynchrony.h"
#include "core/headroom.h"
#include "core/placement.h"
#include "core/remap.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace sosim;
using sosim::trace::TimeSeries;
using sosim::util::FatalError;

power::TopologySpec
smallTopology()
{
    power::TopologySpec spec;
    spec.suites = 1;
    spec.msbsPerSuite = 1;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 2;
    spec.racksPerRpp = 2; // 8 racks.
    return spec;
}

/**
 * Synthetic population: half the instances peak in slot 0, half in slot
 * 1, with small per-instance wiggle.  Optimal placements mix the phases
 * evenly; oblivious ones do not.
 */
struct TwoPhasePopulation {
    std::vector<TimeSeries> itraces;
    std::vector<std::size_t> service_of;
};

TwoPhasePopulation
twoPhases(std::size_t per_phase, unsigned seed)
{
    util::Rng rng(seed);
    TwoPhasePopulation pop;
    for (std::size_t i = 0; i < 2 * per_phase; ++i) {
        const bool day = i < per_phase;
        std::vector<double> samples(24);
        for (std::size_t t = 0; t < samples.size(); ++t) {
            const bool peak_slot = (t < 12) == day;
            samples[t] = (peak_slot ? 1.0 : 0.3) + rng.uniform(0.0, 0.05);
        }
        pop.itraces.emplace_back(samples, 60);
        pop.service_of.push_back(day ? 0 : 1);
    }
    return pop;
}

TEST(PlacementEngine, ValidatesConfig)
{
    power::PowerTree tree(smallTopology());
    core::PlacementConfig bad;
    bad.topServices = 0;
    EXPECT_THROW(core::PlacementEngine(tree, bad), FatalError);
    bad = core::PlacementConfig{};
    bad.clustersPerChild = 0;
    EXPECT_THROW(core::PlacementEngine(tree, bad), FatalError);
}

TEST(PlacementEngine, AssignsEveryInstanceToARack)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(16, 1);
    core::PlacementEngine engine(tree, {});
    const auto assignment = engine.place(pop.itraces, pop.service_of);
    ASSERT_EQ(assignment.size(), pop.itraces.size());
    for (const auto rack : assignment) {
        ASSERT_NE(rack, power::kNoNode);
        EXPECT_EQ(tree.node(rack).level, power::Level::Rack);
    }
}

TEST(PlacementEngine, BalancesRackOccupancy)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(16, 2); // 32 instances over 8 racks.
    core::PlacementEngine engine(tree, {});
    const auto assignment = engine.place(pop.itraces, pop.service_of);
    const auto per_rack = tree.instancesPerRack(assignment);
    for (const auto rack : tree.racks()) {
        EXPECT_GE(per_rack[rack].size(), 3u);
        EXPECT_LE(per_rack[rack].size(), 5u);
    }
}

TEST(PlacementEngine, MixesAntiphaseInstancesWithinRacks)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(16, 3);
    core::PlacementEngine engine(tree, {});
    const auto assignment = engine.place(pop.itraces, pop.service_of);
    // Every rack should host at least one instance of each phase, which
    // an oblivious placement cannot do.
    const auto per_rack = tree.instancesPerRack(assignment);
    for (const auto rack : tree.racks()) {
        int day = 0, night = 0;
        for (const auto i : per_rack[rack]) {
            if (pop.service_of[i] == 0)
                ++day;
            else
                ++night;
        }
        EXPECT_GE(day, 1) << "rack " << rack;
        EXPECT_GE(night, 1) << "rack " << rack;
    }
}

TEST(PlacementEngine, BeatsObliviousOnSumOfPeaks)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(16, 4);
    core::PlacementEngine engine(tree, {});
    const auto smooth = engine.place(pop.itraces, pop.service_of);
    const auto oblivious =
        baseline::obliviousPlacement(tree, pop.service_of);

    const auto report = core::comparePlacements(tree, pop.itraces,
                                                oblivious, smooth);
    // At the rack level the two-phase workload allows roughly a
    // (1 + 1) / (1 + 0.3) reduction; require a solid chunk of it.
    EXPECT_GT(report.at(power::Level::Rack).peakReductionFraction, 0.15);
    EXPECT_GT(report.at(power::Level::Rpp).peakReductionFraction, 0.10);
    // The DC level is invariant: same instances, same total trace.
    EXPECT_NEAR(report.at(power::Level::Datacenter).peakReductionFraction,
                0.0, 1e-9);
}

TEST(PlacementEngine, DeterministicForFixedSeed)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(12, 5);
    core::PlacementEngine engine(tree, {});
    const auto a = engine.place(pop.itraces, pop.service_of);
    const auto b = engine.place(pop.itraces, pop.service_of);
    EXPECT_EQ(a, b);
}

TEST(PlacementEngine, HandlesFewerInstancesThanRacks)
{
    power::PowerTree tree(smallTopology()); // 8 racks.
    const auto pop = twoPhases(2, 6);       // 4 instances.
    core::PlacementEngine engine(tree, {});
    const auto assignment = engine.place(pop.itraces, pop.service_of);
    // All assigned, at most one per rack.
    const auto per_rack = tree.instancesPerRack(assignment);
    for (const auto rack : tree.racks())
        EXPECT_LE(per_rack[rack].size(), 1u);
}

TEST(PlacementEngine, SingleInstanceWorks)
{
    power::PowerTree tree(smallTopology());
    std::vector<TimeSeries> itraces = {TimeSeries({1.0, 0.5}, 60)};
    std::vector<std::size_t> service_of = {0};
    core::PlacementEngine engine(tree, {});
    const auto assignment = engine.place(itraces, service_of);
    EXPECT_EQ(tree.node(assignment[0]).level, power::Level::Rack);
}

TEST(PlacementEngine, PlaceValidatesInput)
{
    power::PowerTree tree(smallTopology());
    core::PlacementEngine engine(tree, {});
    EXPECT_THROW(engine.place({}, {}), FatalError);
    std::vector<TimeSeries> itraces = {TimeSeries({1.0}, 60)};
    EXPECT_THROW(engine.place(itraces, {0, 1}), FatalError);
}

TEST(PlacementEngine, SubtreeReplacementKeepsInstancesInSubtree)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(16, 7);
    const auto oblivious =
        baseline::obliviousPlacement(tree, pop.service_of);

    // Optimize only the subtree under the first SB.
    const auto sb = tree.nodesAtLevel(power::Level::Sb).front();
    const auto racks_under = tree.racksUnder(sb);
    std::vector<bool> in_subtree(tree.nodeCount(), false);
    for (const auto r : racks_under)
        in_subtree[r] = true;

    auto assignment = oblivious;
    core::PlacementEngine engine(tree, {});
    engine.placeSubtree(pop.itraces, pop.service_of, assignment, sb);

    std::size_t moved = 0;
    for (std::size_t i = 0; i < assignment.size(); ++i) {
        // Membership of the subtree is preserved.
        EXPECT_EQ(in_subtree[assignment[i]], in_subtree[oblivious[i]]);
        if (assignment[i] != oblivious[i])
            ++moved;
        if (!in_subtree[oblivious[i]]) {
            EXPECT_EQ(assignment[i], oblivious[i]);
        }
    }
    EXPECT_GT(moved, 0u);
}

TEST(PlacementEngine, SubtreeReplacementReducesChildPeaks)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(16, 8);
    const auto oblivious =
        baseline::obliviousPlacement(tree, pop.service_of);
    const auto sb = tree.nodesAtLevel(power::Level::Sb).front();

    auto optimized = oblivious;
    core::PlacementEngine engine(tree, {});
    engine.placeSubtree(pop.itraces, pop.service_of, optimized, sb);

    const auto before = tree.aggregateTraces(pop.itraces, oblivious);
    const auto after = tree.aggregateTraces(pop.itraces, optimized);
    // The subtree root's own trace is unchanged (same member set).
    for (std::size_t t = 0; t < before[sb].size(); ++t)
        EXPECT_NEAR(before[sb][t], after[sb][t], 1e-9);
    // Sum of child peaks under the subtree improves (or stays equal).
    double sum_before = 0.0, sum_after = 0.0;
    for (const auto child : tree.node(sb).children) {
        sum_before += before[child].peak();
        sum_after += after[child].peak();
    }
    EXPECT_LE(sum_after, sum_before + 1e-9);
}

TEST(HeadroomReport, ExtraServerFractionFromPeaks)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(16, 9);
    const auto oblivious =
        baseline::obliviousPlacement(tree, pop.service_of);
    core::PlacementEngine engine(tree, {});
    const auto smooth = engine.place(pop.itraces, pop.service_of);
    const auto report = core::comparePlacements(tree, pop.itraces,
                                                oblivious, smooth);
    const auto &rpp = report.at(power::Level::Rpp);
    EXPECT_DOUBLE_EQ(rpp.peakReductionFraction,
                     1.0 - rpp.optimizedSumPeaks / rpp.baselineSumPeaks);
    EXPECT_NEAR(report.extraServerFraction(power::Level::Rpp),
                rpp.baselineSumPeaks / rpp.optimizedSumPeaks - 1.0,
                1e-12);
    // Missing level lookup is rejected.
    core::HeadroomReport empty;
    EXPECT_THROW(empty.at(power::Level::Rpp), FatalError);
}

TEST(Remapper, ValidatesConfig)
{
    power::PowerTree tree(smallTopology());
    core::RemapConfig bad;
    bad.maxSwaps = -1;
    EXPECT_THROW(core::Remapper(tree, bad), FatalError);
    bad = core::RemapConfig{};
    bad.pruneKeepFraction = 0.0;
    EXPECT_THROW(core::Remapper(tree, bad), FatalError);
}

TEST(Remapper, RackScoresMatchDirectComputation)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(8, 10);
    const auto assignment =
        baseline::obliviousPlacement(tree, pop.service_of);
    core::Remapper remapper(tree);
    const auto scores = remapper.rackScores(assignment, pop.itraces);

    const auto per_rack = tree.instancesPerRack(assignment);
    for (const auto rack : tree.racks()) {
        if (per_rack[rack].empty()) {
            EXPECT_DOUBLE_EQ(scores[rack], 0.0);
            continue;
        }
        std::vector<const TimeSeries *> members;
        for (const auto i : per_rack[rack])
            members.push_back(&pop.itraces[i]);
        EXPECT_NEAR(scores[rack], core::asynchronyScore(members), 1e-12);
    }
}

TEST(Remapper, ImprovesObliviousPlacement)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(16, 11);
    auto assignment = baseline::obliviousPlacement(tree, pop.service_of);
    const auto before = tree.sumOfPeaks(
        tree.aggregateTraces(pop.itraces, assignment), power::Level::Rack);

    core::RemapConfig config;
    config.maxSwaps = 40;
    core::Remapper remapper(tree, config);
    const auto swaps = remapper.refine(assignment, pop.itraces);
    EXPECT_GT(swaps.size(), 0u);

    const auto after = tree.sumOfPeaks(
        tree.aggregateTraces(pop.itraces, assignment), power::Level::Rack);
    EXPECT_LT(after, before);

    // Each accepted swap improved both ends, per the paper's rule.
    for (const auto &swap : swaps) {
        EXPECT_GT(swap.scoreAtAAfter, swap.scoreAtABefore);
        EXPECT_GT(swap.scoreAtBAfter, swap.scoreAtBBefore);
        EXPECT_NE(swap.rackA, swap.rackB);
    }
}

TEST(Remapper, FindsNoSwapsOnOptimizedPlacement)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(16, 12);
    core::PlacementEngine engine(tree, {});
    auto assignment = engine.place(pop.itraces, pop.service_of);

    // Refine after the workload-aware placement: there is little to fix,
    // and whatever swaps happen must not regress the leaf sum of peaks.
    const auto before = tree.sumOfPeaks(
        tree.aggregateTraces(pop.itraces, assignment), power::Level::Rack);
    core::Remapper remapper(tree);
    remapper.refine(assignment, pop.itraces);
    const auto after = tree.sumOfPeaks(
        tree.aggregateTraces(pop.itraces, assignment), power::Level::Rack);
    EXPECT_LE(after, before + 1e-9);
}

TEST(Remapper, MaxSwapsZeroIsANoop)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(8, 13);
    auto assignment = baseline::obliviousPlacement(tree, pop.service_of);
    const auto original = assignment;
    core::RemapConfig config;
    config.maxSwaps = 0;
    core::Remapper remapper(tree, config);
    const auto swaps = remapper.refine(assignment, pop.itraces);
    EXPECT_TRUE(swaps.empty());
    EXPECT_EQ(assignment, original);
}

TEST(Remapper, AssignmentStaysAPermutationOfRacks)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(16, 14);
    auto assignment = baseline::obliviousPlacement(tree, pop.service_of);
    const auto sizes_before = tree.instancesPerRack(assignment);
    core::Remapper remapper(tree);
    remapper.refine(assignment, pop.itraces);
    const auto sizes_after = tree.instancesPerRack(assignment);
    // Swaps preserve per-rack occupancy exactly.
    for (const auto rack : tree.racks())
        EXPECT_EQ(sizes_before[rack].size(), sizes_after[rack].size());
}

/** Parameterized: clustering granularity sweep keeps correctness. */
class PlacementClusters : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PlacementClusters, EveryGranularityBeatsOblivious)
{
    power::PowerTree tree(smallTopology());
    const auto pop = twoPhases(16, 15);
    core::PlacementConfig config;
    config.clustersPerChild = GetParam();
    core::PlacementEngine engine(tree, config);
    const auto smooth = engine.place(pop.itraces, pop.service_of);
    const auto oblivious =
        baseline::obliviousPlacement(tree, pop.service_of);
    const auto report = core::comparePlacements(tree, pop.itraces,
                                                oblivious, smooth);
    EXPECT_GT(report.at(power::Level::Rack).peakReductionFraction, 0.05)
        << "clustersPerChild=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Granularity, PlacementClusters,
                         ::testing::Values(1, 2, 3, 4));

} // namespace

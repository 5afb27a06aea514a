/**
 * @file
 * Soundness tests for cluster-pruned swap candidates (PruneMode /
 * cluster::CandidatePairIndex).
 *
 * Pruning only restricts the searched pair space — every accepted swap
 * still passes the paper's improve-at-both-nodes test — so a pruned
 * refinement is always a valid refinement; what it may lose is a little
 * final score.  These tests pin that story: the degenerate
 * configuration keepFraction = 1 is bit-identical to the exhaustive
 * scan, the pruned final asynchrony score stays within a fixed epsilon
 * of exhaustive on randomized populations, and the index itself is
 * deterministic with at least one partner cluster per cluster at every
 * automatic k.  The cluster count is ceil(sqrt(n)) clamped to [2, 32],
 * so the k sweeps below are drawn through the population size.
 */

#include <array>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "cluster/candidate_index.h"
#include "core/remap.h"
#include "obs/metrics.h"
#include "power/power_tree.h"
#include "util/rng.h"
#include "workload/catalog.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

// ---------------------------------------------------------------------
// CandidatePairIndex unit tests.

std::vector<cluster::Point>
ringPoints(std::size_t n, std::size_t dim, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<cluster::Point> points(n, cluster::Point(dim, 0.0));
    for (auto &p : points)
        for (auto &v : p)
            v = rng.uniform();
    return points;
}

/** (population, automatic k) pairs spanning the clamp range. */
constexpr std::array<std::pair<std::size_t, std::size_t>, 4> kAutoK = {
    {{4, 2}, {25, 5}, {256, 16}, {2048, 32}}};

TEST(CandidatePairIndex, EveryClusterKeepsAtLeastOnePartner)
{
    for (const auto &[n, k] : kAutoK) {
        const auto points = ringPoints(n, 4, 11);
        // Tiny, but >= 1 partner guaranteed.
        const auto index = cluster::CandidatePairIndex::build(points, 0.1);
        EXPECT_EQ(index.clusterCount(), k);
        EXPECT_GE(index.keptPerCluster(), 1u);
        for (std::size_t ca = 0; ca < k; ++ca) {
            std::size_t partners = 0;
            for (std::size_t cb = 0; cb < k; ++cb)
                partners += index.allowed(ca, cb) ? 1 : 0;
            EXPECT_GE(partners, 1u) << "cluster " << ca;
        }
    }
}

TEST(CandidatePairIndex, KeepFractionOneKeepsEveryPair)
{
    const auto points = ringPoints(36, 3, 5);
    const auto index = cluster::CandidatePairIndex::build(points, 1.0);
    ASSERT_EQ(index.clusterCount(), 6u); // ceil(sqrt(36)).
    for (std::size_t ca = 0; ca < 6; ++ca)
        for (std::size_t cb = 0; cb < 6; ++cb)
            EXPECT_TRUE(index.allowed(ca, cb));
}

TEST(CandidatePairIndex, BuildIsDeterministic)
{
    const auto points = ringPoints(100, 5, 77);
    const auto a = cluster::CandidatePairIndex::build(points, 0.4);
    const auto b = cluster::CandidatePairIndex::build(points, 0.4);
    ASSERT_EQ(a.clusterCount(), b.clusterCount());
    EXPECT_EQ(a.keptPerCluster(), b.keptPerCluster());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(a.clusterOf(i), b.clusterOf(i));
    for (std::size_t ca = 0; ca < a.clusterCount(); ++ca)
        for (std::size_t cb = 0; cb < a.clusterCount(); ++cb)
            EXPECT_EQ(a.allowed(ca, cb), b.allowed(ca, cb));
}

TEST(CandidatePairIndex, AutoClusterCountScalesWithPopulation)
{
    const auto small =
        cluster::CandidatePairIndex::build(ringPoints(9, 3, 1), 0.5);
    EXPECT_EQ(small.clusterCount(), 3u); // ceil(sqrt(9)).
    const auto large = cluster::CandidatePairIndex::build(
        ringPoints(4096, 3, 2), 0.5);
    EXPECT_EQ(large.clusterCount(), 32u); // Clamped.
}

TEST(ShapePoints, NormalizesShapeAndKeepsZeroTracesAtOrigin)
{
    // Two traces of 8 samples: a day-peaking shape and all-zeros.
    const std::vector<double> day = {1, 2, 4, 8, 8, 4, 2, 1};
    const std::vector<double> zero(8, 0.0);
    const std::vector<const double *> rows = {day.data(), zero.data()};
    const auto points = cluster::shapePoints(rows, 8, 4);
    ASSERT_EQ(points.size(), 2u);
    ASSERT_EQ(points[0].size(), 4u);
    // Bucket means 1.5, 6, 6, 1.5 normalize to peak 1.
    EXPECT_DOUBLE_EQ(points[0][0], 0.25);
    EXPECT_DOUBLE_EQ(points[0][1], 1.0);
    EXPECT_DOUBLE_EQ(points[0][2], 1.0);
    EXPECT_DOUBLE_EQ(points[0][3], 0.25);
    for (const double v : points[1])
        EXPECT_EQ(v, 0.0);
}

// ---------------------------------------------------------------------
// Pruned refinement vs exhaustive.

/** Instances of the four services of pruneSpec; 256 by default. */
using ServiceCounts = std::array<int, 4>;
constexpr ServiceCounts kDefaultCounts = {80, 80, 48, 48};

workload::DatacenterSpec
pruneSpec(std::uint64_t seed, const ServiceCounts &counts)
{
    workload::DatacenterSpec spec;
    spec.name = "prune-test";
    spec.topology.suites = 2;
    spec.topology.msbsPerSuite = 2;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = 60;
    spec.weeks = 2;
    spec.seed = seed;
    spec.services.push_back({workload::webFrontend(), counts[0]});
    spec.services.push_back({workload::dbBackend(), counts[1]});
    spec.services.push_back({workload::hadoop(), counts[2]});
    spec.services.push_back({workload::instagram(), counts[3]});
    return spec;
}

struct PruneFixture {
    power::PowerTree tree;
    std::vector<trace::TimeSeries> traces;
    power::Assignment start;
};

PruneFixture
makePruneFixture(std::uint64_t seed,
                 const ServiceCounts &counts = kDefaultCounts)
{
    const auto spec = pruneSpec(seed, counts);
    const auto dc = workload::generate(spec);
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    power::PowerTree tree(spec.topology);
    auto start = baseline::obliviousPlacement(tree, service_of);
    return {std::move(tree), dc.trainingTraces(), std::move(start)};
}

/** Mean asynchrony score over occupied racks under an assignment. */
double
meanRackScore(const PruneFixture &f, const power::Assignment &assignment)
{
    core::Remapper remapper(f.tree, {});
    const auto scores = remapper.rackScores(assignment, f.traces);
    double sum = 0.0;
    std::size_t occupied = 0;
    for (const auto rack : f.tree.racks()) {
        if (scores[rack] <= 0.0)
            continue;
        sum += scores[rack];
        ++occupied;
    }
    return occupied == 0 ? 0.0 : sum / static_cast<double>(occupied);
}

std::vector<core::SwapRecord>
refineWith(const PruneFixture &f, power::Assignment &assignment,
           const core::RemapConfig &config)
{
    core::Remapper remapper(f.tree, config);
    return remapper.refine(assignment, f.traces);
}

TEST(PruneSoundness, KeepFractionOneMatchesExhaustiveExactly)
{
    const PruneFixture f = makePruneFixture(101);
    core::RemapConfig off;
    off.maxSwaps = 16;
    core::RemapConfig on = off;
    on.prune = core::PruneMode::kCluster;
    on.pruneKeepFraction = 1.0;

    power::Assignment a = f.start;
    power::Assignment b = f.start;
    const auto swaps_off = refineWith(f, a, off);
    const auto swaps_on = refineWith(f, b, on);
    EXPECT_EQ(a, b);
    ASSERT_EQ(swaps_off.size(), swaps_on.size());
    for (std::size_t i = 0; i < swaps_off.size(); ++i) {
        EXPECT_EQ(swaps_off[i].instanceA, swaps_on[i].instanceA);
        EXPECT_EQ(swaps_off[i].instanceB, swaps_on[i].instanceB);
    }
}

TEST(PruneSoundness, PrunedScoreWithinEpsilonOfExhaustive)
{
    // Randomized populations (pop = 256, three seeds): the pruned
    // refinement must land within a pinned epsilon of the exhaustive
    // final mean asynchrony score, and never below the unrefined start
    // (pruning can only restrict the search, not invent bad swaps).
    constexpr double kEpsilon = 0.05;
    for (const std::uint64_t seed : {201u, 202u, 203u}) {
        const PruneFixture f = makePruneFixture(seed);
        core::RemapConfig off;
        off.maxSwaps = 24;
        core::RemapConfig on = off;
        on.prune = core::PruneMode::kCluster;
        on.pruneKeepFraction = 0.25;

        const double before = meanRackScore(f, f.start);
        power::Assignment exhaustive = f.start;
        power::Assignment pruned = f.start;
        refineWith(f, exhaustive, off);
        refineWith(f, pruned, on);
        const double score_exhaustive = meanRackScore(f, exhaustive);
        const double score_pruned = meanRackScore(f, pruned);

        EXPECT_GE(score_pruned + 1e-12, before)
            << "seed " << seed
            << ": pruned refinement made the placement worse";
        EXPECT_GE(score_pruned, score_exhaustive - kEpsilon)
            << "seed " << seed << ": pruned " << score_pruned
            << " vs exhaustive " << score_exhaustive;
    }
}

TEST(PruneSoundness, ClusterCountFuzz)
{
    // The automatic k over populations of 4, 36, 256 and 1120 (k = 2,
    // 6, 16 and the clamp 32): every configuration must produce a valid
    // refinement (assignment stays a permutation of the start: swaps
    // preserve the rack occupancy multiset).
    const std::array<std::pair<ServiceCounts, std::size_t>, 4> sweeps = {
        {{{1, 1, 1, 1}, 2},
         {{10, 10, 8, 8}, 6},
         {kDefaultCounts, 16},
         {{320, 320, 240, 240}, 32}}};
    auto &clusters = obs::registry().gauge("remap.prune_clusters");
    for (const auto &[counts, k] : sweeps) {
        const PruneFixture f = makePruneFixture(303, counts);
        core::RemapConfig config;
        config.maxSwaps = 8;
        config.prune = core::PruneMode::kCluster;
        config.pruneKeepFraction = 0.3;
        clusters.reset();
        power::Assignment refined = f.start;
        const auto swaps = refineWith(f, refined, config);
        EXPECT_EQ(clusters.value(), static_cast<double>(k));
        // Swaps preserve per-rack occupancy counts.
        std::vector<std::size_t> before(f.tree.nodeCount(), 0);
        std::vector<std::size_t> after(f.tree.nodeCount(), 0);
        for (const auto rack : f.start)
            ++before[rack];
        for (const auto rack : refined)
            ++after[rack];
        EXPECT_EQ(before, after) << "k=" << k;
        // Every accepted swap improved both nodes (the paper's rule).
        for (const auto &swap : swaps) {
            EXPECT_GT(swap.scoreAtAAfter, swap.scoreAtABefore)
                << "k=" << k;
            EXPECT_GT(swap.scoreAtBAfter, swap.scoreAtBBefore)
                << "k=" << k;
        }
    }
}

} // namespace

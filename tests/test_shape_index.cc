/**
 * @file
 * Tests for cluster::ShapeIndex, the shared fingerprinted store of
 * diurnal-shape embeddings (src/cluster/shape_index.{h,cc}).
 *
 * The index replaced three independent call sites that each recomputed
 * cluster::shapePoints from raw traces: the remap pruner's candidate
 * index, fleet-scale placement's kShape embedding, and the monitor's
 * drift diagnostic.  These tests pin (a) that build() is exactly
 * shapePoints — so handing a prebuilt index to any consumer is
 * bit-identical to letting it re-embed — (b) that the fingerprint is a
 * faithful caching identity (stable across calls and thread counts,
 * sensitive to every input), and (c) the drift metric's contract.
 */

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/candidate_index.h"
#include "cluster/shape_index.h"
#include "core/monitor.h"
#include "core/placement.h"
#include "core/remap.h"
#include "baseline/oblivious.h"
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

workload::GeneratedDatacenter
makeDc(std::uint64_t seed = 31)
{
    workload::DatacenterSpec spec;
    spec.name = "shape-index";
    spec.topology.suites = 1;
    spec.topology.msbsPerSuite = 2;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = 60;
    spec.weeks = 2;
    spec.seed = seed;
    spec.services.push_back({workload::webFrontend(), 24});
    spec.services.push_back({workload::dbBackend(), 24});
    spec.services.push_back({workload::hadoop(), 16});
    return workload::generate(spec);
}

std::vector<const double *>
rowsOf(const std::vector<trace::TimeSeries> &traces)
{
    std::vector<const double *> rows(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i)
        rows[i] = traces[i].samples().data();
    return rows;
}

// ---------------------------------------------------------------------
// Construction and accessors.

TEST(ShapeIndex, BuildMatchesShapePointsExactly)
{
    const auto dc = makeDc();
    const auto traces = dc.trainingTraces();
    const auto rows = rowsOf(traces);
    const std::size_t samples = traces.front().size();

    const auto index = cluster::ShapeIndex::build(rows, samples);
    const auto direct =
        cluster::shapePoints(rows, samples, cluster::kDefaultShapeBuckets);

    ASSERT_EQ(index.size(), direct.size());
    EXPECT_EQ(index.samples(), samples);
    EXPECT_EQ(index.buckets(), cluster::kDefaultShapeBuckets);
    EXPECT_EQ(index.dimensions(), direct.front().size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        ASSERT_EQ(index.point(i).size(), direct[i].size());
        for (std::size_t d = 0; d < direct[i].size(); ++d)
            // Bit-identical, not approximately equal: consumers handed
            // the index must behave exactly as if they re-embedded.
            EXPECT_EQ(index.point(i)[d], direct[i][d])
                << "point " << i << " dim " << d;
    }
}

TEST(ShapeIndex, FromPointsEqualsBuild)
{
    const auto dc = makeDc();
    const auto traces = dc.trainingTraces();
    const auto rows = rowsOf(traces);
    const std::size_t samples = traces.front().size();

    const auto built = cluster::ShapeIndex::build(rows, samples);
    const auto wrapped = cluster::ShapeIndex::fromPoints(
        cluster::shapePoints(rows, samples, cluster::kDefaultShapeBuckets),
        samples, cluster::kDefaultShapeBuckets);

    EXPECT_EQ(built.fingerprint(), wrapped.fingerprint());
    EXPECT_EQ(built.points(), wrapped.points());
}

TEST(ShapeIndex, EmptyIndexIsEmpty)
{
    const cluster::ShapeIndex index;
    EXPECT_TRUE(index.empty());
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.dimensions(), 0u);
    // Two default-constructed indexes agree on identity.
    EXPECT_EQ(index.fingerprint(), cluster::ShapeIndex().fingerprint());
}

// ---------------------------------------------------------------------
// Fingerprint: stable and sensitive.

TEST(ShapeIndex, FingerprintIsStableAcrossCallsAndThreadCounts)
{
    const auto dc = makeDc();
    const auto traces = dc.trainingTraces();
    const auto rows = rowsOf(traces);
    const std::size_t samples = traces.front().size();

    std::uint64_t reference = 0;
    {
        ScopedThreads scoped(1);
        reference = cluster::ShapeIndex::build(rows, samples).fingerprint();
    }
    for (const std::size_t threads :
         {std::size_t(1), std::size_t(2), std::size_t(8)}) {
        ScopedThreads scoped(threads);
        EXPECT_EQ(cluster::ShapeIndex::build(rows, samples).fingerprint(),
                  reference)
            << "threads=" << threads;
    }
}

TEST(ShapeIndex, FingerprintSeesEveryInput)
{
    const auto dc = makeDc();
    const auto traces = dc.trainingTraces();
    const auto rows = rowsOf(traces);
    const std::size_t samples = traces.front().size();
    const auto base = cluster::ShapeIndex::build(rows, samples);

    // Different bucket count -> different embedding -> different id.
    EXPECT_NE(cluster::ShapeIndex::build(rows, samples, 8).fingerprint(),
              base.fingerprint());

    // Different population (drop one instance) -> different id.
    std::vector<const double *> fewer(rows.begin(), rows.end() - 1);
    EXPECT_NE(cluster::ShapeIndex::build(fewer, samples).fingerprint(),
              base.fingerprint());

    // Same shape parameters over different traces -> different id.
    const auto other = makeDc(77);
    const auto other_traces = other.trainingTraces();
    EXPECT_NE(cluster::ShapeIndex::build(rowsOf(other_traces), samples)
                  .fingerprint(),
              base.fingerprint());
}

// ---------------------------------------------------------------------
// Drift metric.

TEST(ShapeIndex, DriftIsZeroAgainstSelfAndSymmetric)
{
    const auto dc = makeDc();
    const auto traces = dc.trainingTraces();
    const std::size_t samples = traces.front().size();
    const auto a = cluster::ShapeIndex::build(rowsOf(traces), samples);

    EXPECT_EQ(a.meanDriftFrom(a), 0.0);
    EXPECT_EQ(a.meanDriftFrom(cluster::ShapeIndex()), 0.0);
    EXPECT_EQ(cluster::ShapeIndex().meanDriftFrom(a), 0.0);

    const auto other = makeDc(77);
    const auto other_traces = other.trainingTraces();
    const auto b =
        cluster::ShapeIndex::build(rowsOf(other_traces), samples);
    EXPECT_GT(a.meanDriftFrom(b), 0.0);
    EXPECT_EQ(a.meanDriftFrom(b), b.meanDriftFrom(a));
}

// ---------------------------------------------------------------------
// Consumer parity: a prebuilt index must be bit-equivalent to letting
// each consumer re-embed locally.

TEST(ShapeIndex, RemapPruneParityWithAndWithoutSharedIndex)
{
    const auto dc = makeDc();
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);

    power::PowerTree tree(power::TopologySpec{1, 2, 2, 2, 2});
    const auto start = baseline::obliviousPlacement(tree, service_of);

    core::RemapConfig config;
    config.maxSwaps = 8;
    config.prune = core::PruneMode::kCluster;
    config.pruneKeepFraction = 0.5;
    core::Remapper remapper(tree, config);

    auto without = start;
    const auto swaps_without = remapper.refine(without, traces);

    const auto rows = rowsOf(traces);
    const auto index =
        cluster::ShapeIndex::build(rows, traces.front().size());
    auto with = start;
    const auto swaps_with = remapper.refine(with, traces, nullptr, &index);

    EXPECT_EQ(without, with);
    ASSERT_EQ(swaps_without.size(), swaps_with.size());
    for (std::size_t i = 0; i < swaps_without.size(); ++i) {
        EXPECT_EQ(swaps_without[i].instanceA, swaps_with[i].instanceA);
        EXPECT_EQ(swaps_without[i].instanceB, swaps_with[i].instanceB);
    }

    // A size-mismatched index is ignored (rebuilt locally), not trusted.
    const auto wrong = cluster::ShapeIndex::build(
        std::vector<const double *>(rows.begin(), rows.begin() + 3),
        traces.front().size());
    auto mismatched = start;
    remapper.refine(mismatched, traces, nullptr, &wrong);
    EXPECT_EQ(mismatched, with);
}

TEST(ShapeIndex, PlacementShapeEmbeddingParityWithAndWithoutIndex)
{
    const auto dc = makeDc();
    const auto traces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    power::PowerTree tree(power::TopologySpec{1, 2, 2, 2, 2});

    core::PlacementConfig config;
    config.embedding = core::PlacementEmbedding::kShape;
    const core::PlacementEngine engine(tree, config);

    const auto without = engine.place(traces, service_of);
    const auto index = cluster::ShapeIndex::build(
        rowsOf(traces), traces.front().size());
    const auto with = engine.place(traces, service_of, &index);
    EXPECT_EQ(without, with);

    // The shape embedding is a different clustering input than the
    // score vectors, so the two modes must be allowed to disagree —
    // but both are valid assignments of every instance.
    const core::PlacementEngine score_engine(tree, {});
    const auto score = score_engine.place(traces, service_of);
    EXPECT_EQ(score.size(), with.size());
}

TEST(ShapeIndex, MonitorDriftParityWithDirectComputation)
{
    const auto dc = makeDc();
    const auto training = dc.trainingTraces();
    const auto week = dc.testTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    power::PowerTree tree(power::TopologySpec{1, 2, 2, 2, 2});
    const auto assignment = baseline::obliviousPlacement(tree, service_of);

    const std::size_t samples = training.front().size();
    const auto index = cluster::ShapeIndex::build(rowsOf(training), samples);

    core::MonitorConfig config;
    const auto with_index =
        core::measureWeek(tree, config, week, assignment, &index);
    const auto without =
        core::measureWeek(tree, config, week, assignment);

    // Drift only changes the diagnostic; the measurement itself is
    // untouched.
    EXPECT_EQ(without.shapeDrift, 0.0);
    EXPECT_EQ(with_index.sumOfPeaks, without.sumOfPeaks);
    EXPECT_EQ(with_index.rootPeak, without.rootPeak);
    EXPECT_EQ(with_index.fragmentationRatio, without.fragmentationRatio);

    // The reported drift equals the index-to-index mean distance of
    // the same week embedded directly (clean week: no repairs).
    const auto week_index = cluster::ShapeIndex::build(
        rowsOf(week), week.front().size(), index.buckets());
    EXPECT_EQ(with_index.shapeDrift, week_index.meanDriftFrom(index));
    EXPECT_GE(with_index.shapeDrift, 0.0);
}

} // namespace

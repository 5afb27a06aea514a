/**
 * @file
 * Determinism harness for the sharded, parallel remap swap scan.
 *
 * The fleet-scale scan fans out (candidate, shard) tasks across the
 * thread pool (src/core/remap.cc) under the serial==parallel contract
 * of util::parallelFor: per-task slot writes plus a serial reduction in
 * (candidate, shard, rack) order — which is the unsharded (candidate,
 * rack) order, because ShardPlan ranges concatenate in rack order.
 * These tests pin that contract end to end: the full swap plan (every
 * SwapRecord field) and the refined assignment must be bit-identical
 * to the unsharded scan at every thread count (and so shard count,
 * which follows it) and pruning mode, on clean and on
 * faulted-then-repaired populations.  ShardPlan itself
 * is unit-tested here too (group alignment, order preservation,
 * clamping).
 */

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "core/remap.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "power/power_tree.h"
#include "trace/repair.h"
#include "trace/shard.h"
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

// ---------------------------------------------------------------------
// ShardPlan unit tests.

TEST(ShardPlan, CoversEveryItemInOrder)
{
    // Three groups of uneven size.
    const std::vector<std::size_t> group_of = {7, 7, 7, 7, 2, 2, 9};
    const auto plan = trace::ShardPlan::build(group_of, 3);
    ASSERT_GE(plan.shardCount(), 1u);
    ASSERT_LE(plan.shardCount(), 3u);
    EXPECT_EQ(plan.itemCount(), group_of.size());
    // Concatenation reproduces [0, n) exactly.
    std::size_t next = 0;
    for (std::size_t s = 0; s < plan.shardCount(); ++s) {
        const auto &r = plan.range(s);
        EXPECT_EQ(r.begin, next);
        EXPECT_LT(r.begin, r.end);
        next = r.end;
    }
    EXPECT_EQ(next, group_of.size());
}

TEST(ShardPlan, NeverSplitsAGroup)
{
    const std::vector<std::size_t> group_of = {4, 4, 4, 1, 1, 8, 8, 8, 8};
    for (const std::size_t target : {2u, 3u, 5u, 100u}) {
        const auto plan = trace::ShardPlan::build(group_of, target);
        for (std::size_t s = 0; s < plan.shardCount(); ++s) {
            const auto &r = plan.range(s);
            // No group id may appear in two different shards: the first
            // item of a shard must start a new group run.
            if (r.begin > 0) {
                EXPECT_NE(group_of[r.begin], group_of[r.begin - 1])
                    << "shard " << s << " splits group "
                    << group_of[r.begin];
            }
        }
    }
}

TEST(ShardPlan, ClampsToGroupCountAndHandlesTrivialTargets)
{
    const std::vector<std::size_t> group_of = {3, 3, 5, 5, 5, 1};
    EXPECT_EQ(trace::ShardPlan::build(group_of, 0).shardCount(), 1u);
    EXPECT_EQ(trace::ShardPlan::build(group_of, 1).shardCount(), 1u);
    // Only 3 groups exist, so 100 shards clamp to 3.
    EXPECT_EQ(trace::ShardPlan::build(group_of, 100).shardCount(), 3u);
    // Empty input: empty plan.
    EXPECT_EQ(trace::ShardPlan::build({}, 4).shardCount(), 0u);
}

TEST(ShardPlan, ShardOfAgreesWithRanges)
{
    const std::vector<std::size_t> group_of = {0, 0, 1, 1, 1, 2, 3, 3};
    const auto plan = trace::ShardPlan::build(group_of, 4);
    for (std::size_t s = 0; s < plan.shardCount(); ++s)
        for (std::size_t i = plan.range(s).begin; i < plan.range(s).end;
             ++i)
            EXPECT_EQ(plan.shardOf(i), s);
}

// ---------------------------------------------------------------------
// Swap-plan equality across the fan-out configuration space.

struct Fixture {
    workload::GeneratedDatacenter dc;
    power::PowerTree tree;
    std::vector<trace::TimeSeries> traces;
    std::vector<double> validity;
    power::Assignment start;
};

workload::DatacenterSpec
fixtureSpec()
{
    workload::DatacenterSpec spec;
    spec.name = "remap-par";
    // 2 suites x 2 MSB x 2 SB x 2 RPP x 2 racks = 32 racks: enough
    // subtree structure (8 SBs) for multi-shard plans.
    spec.topology.suites = 2;
    spec.topology.msbsPerSuite = 2;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = 60;
    spec.weeks = 2;
    spec.seed = 29;
    spec.services.push_back({workload::webFrontend(), 48});
    spec.services.push_back({workload::dbBackend(), 48});
    spec.services.push_back({workload::hadoop(), 32});
    return spec;
}

Fixture
makeFixture(bool faulted)
{
    const auto spec = fixtureSpec();
    auto dc = workload::generate(spec);
    auto traces = dc.trainingTraces();
    std::vector<double> validity;
    if (faulted) {
        const auto plan = fault::FaultPlan::build(
            7, fault::faultProfile("harsh"),
            {traces.size(), traces.front().size()});
        fault::injectTraceFaults(traces, plan);
        const auto summary =
            trace::repairAll(traces, trace::RepairPolicy::Interpolate);
        validity = summary.validBefore;
    }
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    power::PowerTree tree(spec.topology);
    auto start = baseline::obliviousPlacement(tree, service_of);
    return {std::move(dc), std::move(tree), std::move(traces),
            std::move(validity), std::move(start)};
}

struct Outcome {
    power::Assignment assignment;
    std::vector<core::SwapRecord> swaps;
};

Outcome
runRefine(const Fixture &f, const core::RemapConfig &config,
          std::size_t threads)
{
    ScopedThreads scoped(threads);
    core::Remapper remapper(f.tree, config);
    Outcome out;
    out.assignment = f.start;
    out.swaps = remapper.refine(out.assignment, f.traces,
                                f.validity.empty() ? nullptr : &f.validity);
    return out;
}

/**
 * The unsharded reference: the fixture's racks, in the same order, hung
 * under one suite bus.  ShardPlan groups racks by their SB, so this
 * tree always scans as one shard, the plain nested loop.  refine()
 * reads only the racks of its tree and their order, so the same start
 * gives the same problem, and the plan maps back rack for rack.
 */
Outcome
runUnsharded(const Fixture &f, const core::RemapConfig &config)
{
    const auto &spec = f.tree.spec();
    power::TopologySpec flat;
    flat.suites = 1;
    flat.msbsPerSuite = 1;
    flat.sbsPerMsb = 1;
    flat.rppsPerSb = spec.suites * spec.msbsPerSuite * spec.sbsPerMsb *
                     spec.rppsPerSb;
    flat.racksPerRpp = spec.racksPerRpp;
    const power::PowerTree tree(flat);
    EXPECT_EQ(tree.nodesAtLevel(power::Level::Sb).size(), 1u);

    const auto &from = f.tree.racks();
    const auto &to = tree.racks();
    std::vector<power::NodeId> to_flat(f.tree.nodeCount(), power::kNoNode);
    std::vector<power::NodeId> back(tree.nodeCount(), power::kNoNode);
    for (std::size_t r = 0; r < from.size(); ++r) {
        to_flat[from[r]] = to[r];
        back[to[r]] = from[r];
    }

    ScopedThreads scoped(1);
    core::Remapper remapper(tree, config);
    Outcome out;
    for (const power::NodeId rack : f.start)
        out.assignment.push_back(to_flat[rack]);
    out.swaps = remapper.refine(out.assignment, f.traces,
                                f.validity.empty() ? nullptr : &f.validity);
    for (power::NodeId &rack : out.assignment)
        rack = back[rack];
    for (core::SwapRecord &swap : out.swaps) {
        swap.rackA = back[swap.rackA];
        swap.rackB = back[swap.rackB];
    }
    return out;
}

void
expectIdentical(const Outcome &a, const Outcome &b,
                const std::string &what)
{
    EXPECT_EQ(a.assignment, b.assignment) << what;
    ASSERT_EQ(a.swaps.size(), b.swaps.size()) << what;
    for (std::size_t i = 0; i < a.swaps.size(); ++i) {
        const auto &sa = a.swaps[i];
        const auto &sb = b.swaps[i];
        EXPECT_EQ(sa.instanceA, sb.instanceA) << what << " swap " << i;
        EXPECT_EQ(sa.instanceB, sb.instanceB) << what << " swap " << i;
        EXPECT_EQ(sa.rackA, sb.rackA) << what << " swap " << i;
        EXPECT_EQ(sa.rackB, sb.rackB) << what << " swap " << i;
        // Bit-identical doubles, not approximately equal: the contract
        // is that fan-out shape never changes the arithmetic.
        EXPECT_EQ(sa.scoreAtABefore, sb.scoreAtABefore)
            << what << " swap " << i;
        EXPECT_EQ(sa.scoreAtAAfter, sb.scoreAtAAfter)
            << what << " swap " << i;
        EXPECT_EQ(sa.scoreAtBBefore, sb.scoreAtBBefore)
            << what << " swap " << i;
        EXPECT_EQ(sa.scoreAtBAfter, sb.scoreAtBAfter)
            << what << " swap " << i;
    }
}

class RemapParallel
    : public ::testing::TestWithParam<
          std::tuple<core::PruneMode, bool /* faulted */>>
{
};

TEST_P(RemapParallel, PlanIsInvariantAcrossThreadsAndShards)
{
    const auto [prune, faulted] = GetParam();
    const Fixture f = makeFixture(faulted);

    core::RemapConfig config;
    config.maxSwaps = 12;
    config.prune = prune;
    config.pruneKeepFraction = 0.5;

    // Reference: one shard.  The fixture tree shards its 8 SBs into 2x
    // the thread count, so every run below is sharded (2 to 8 shards).
    const Outcome reference = runUnsharded(f, config);
    EXPECT_FALSE(reference.swaps.empty())
        << "fixture found no swaps; the invariance check would be "
           "vacuous";

    for (const std::size_t threads : {std::size_t(1), std::size_t(2),
                                      std::size_t(3), std::size_t(8)}) {
        const Outcome out = runRefine(f, config, threads);
        expectIdentical(reference, out,
                        "threads=" + std::to_string(threads));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RemapParallel,
    ::testing::Combine(
        ::testing::Values(core::PruneMode::kOff,
                          core::PruneMode::kCluster),
        ::testing::Values(false, true)));

} // namespace

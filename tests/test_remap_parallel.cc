/**
 * @file
 * Determinism harness for the parallel remap swap scan.
 *
 * The scan fans out one index per (candidate, rack) pair across the
 * thread pool (src/core/remap.cc) under the serial==parallel contract
 * of util::parallelFor: each index writes its own slot, and a serial
 * reduction folds the slots in (candidate, rack) order.  These tests
 * pin that contract end to end: the full swap plan (every SwapRecord
 * field) and the refined assignment must be bit-identical to the
 * one-thread run — where parallelFor runs the same body inline, in
 * index order — at every thread count and pruning mode, on clean and
 * on faulted-then-repaired populations.
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
// Swap-plan equality across thread counts.

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
    // (candidate, rack) pairs to split into several chunks per lane.
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

TEST_P(RemapParallel, PlanIsInvariantAcrossThreadCounts)
{
    const auto [prune, faulted] = GetParam();
    const Fixture f = makeFixture(faulted);

    core::RemapConfig config;
    config.maxSwaps = 12;
    config.prune = prune;
    config.pruneKeepFraction = 0.5;

    // Reference: one thread, where parallelFor runs the scan body
    // inline in (candidate, rack) order with no chunks.
    const Outcome reference = runRefine(f, config, 1);
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

/**
 * @file
 * Determinism harness for the parallel balanced-partition placement.
 *
 * PlacementEngine::distribute expands the recursion level by level: the
 * tasks of each power-tree level fan out over util::parallelFor, one
 * index per task, each writing only its own children slot; a serial
 * concatenation in frontier order rebuilds the next frontier in exactly
 * the old depth-first child order (src/core/placement.cc).  These tests
 * pin the serial==parallel contract end to end: the full derived
 * assignment must be bit-identical across thread counts, kernel modes,
 * and on clean as well as faulted-then-repaired populations.  This is
 * the gate CI runs at SOSIM_THREADS 1 and 4 in the default, ASan and
 * TSan jobs (mirroring the remap-determinism gate).
 */

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "core/placement.h"
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

struct Fixture {
    workload::GeneratedDatacenter dc;
    power::PowerTree tree;
    std::vector<trace::TimeSeries> traces;
    std::vector<std::size_t> serviceOf;
};

workload::DatacenterSpec
fixtureSpec()
{
    workload::DatacenterSpec spec;
    spec.name = "place-par";
    // 2 suites x 2 MSB x 2 SB x 2 RPP x 2 racks = 32 racks: every level
    // below the root holds at least two tasks, so each one fans out
    // across the pool.
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
    if (faulted) {
        const auto plan = fault::FaultPlan::build(
            7, fault::faultProfile("harsh"),
            {traces.size(), traces.front().size()});
        fault::injectTraceFaults(traces, plan);
        trace::repairAll(traces, trace::RepairPolicy::Interpolate);
    }
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    power::PowerTree tree(spec.topology);
    return {std::move(dc), std::move(tree), std::move(traces),
            std::move(service_of)};
}

power::Assignment
runPlace(const Fixture &f, const core::PlacementConfig &config,
         std::size_t threads)
{
    ScopedThreads scoped(threads);
    const core::PlacementEngine engine(f.tree, config);
    return engine.place(f.traces, f.serviceOf);
}

class PlacementParallel
    : public ::testing::TestWithParam<
          std::tuple<trace::KernelMode, bool /* faulted */>>
{
};

TEST_P(PlacementParallel, PlanIsInvariantAcrossThreadCounts)
{
    const auto [mode, faulted] = GetParam();
    const Fixture f = makeFixture(faulted);

    core::PlacementConfig config;
    config.kernels = mode;

    const power::Assignment reference = runPlace(f, config, 1);
    ASSERT_EQ(reference.size(), f.traces.size());

    for (const std::size_t threads :
         {std::size_t(1), std::size_t(2), std::size_t(8)}) {
        const power::Assignment out = runPlace(f, config, threads);
        // Bit-identical assignment, not merely equivalent quality: the
        // contract is that fan-out shape never changes the arithmetic.
        EXPECT_EQ(reference, out) << "threads=" << threads;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PlacementParallel,
    ::testing::Combine(
        ::testing::Values(trace::KernelMode::kStrict,
                          trace::KernelMode::kBlocked),
        ::testing::Values(false, true)));

TEST(PlacementParallelSubtree, SubtreeReplaceIsThreadCountInvariant)
{
    // placeSubtree shares distribute() with place(); pin it too.
    const Fixture f = makeFixture(false);
    const core::PlacementEngine engine(f.tree, {});

    power::Assignment reference;
    {
        ScopedThreads scoped(1);
        reference = engine.place(f.traces, f.serviceOf);
        // Re-optimize the subtree under the first mid-level node.
        const auto &root = f.tree.node(f.tree.root());
        engine.placeSubtree(f.traces, f.serviceOf, reference,
                            root.children.front());
    }
    for (const std::size_t threads : {std::size_t(2), std::size_t(8)}) {
        ScopedThreads scoped(threads);
        auto out = engine.place(f.traces, f.serviceOf);
        const auto &root = f.tree.node(f.tree.root());
        engine.placeSubtree(f.traces, f.serviceOf, out,
                            root.children.front());
        EXPECT_EQ(out, reference) << "threads=" << threads;
    }
}

} // namespace

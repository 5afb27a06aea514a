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
 *
 * The RemapResume suite holds Remapper::extend to the same bar: a
 * prefix, pass-through or resume of a kept search must equal a cold
 * refine() at the target budget, bit for bit.
 */

#include <cstddef>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "core/remap.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "obs/obs.h"
#include "power/power_tree.h"
#include "trace/repair.h"
#include "util/error.h"
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

/**
 * The fixture population.  The small one (8 racks, 32 instances) is a
 * search that stops by itself: every rack is tried before a 1000-swap
 * budget runs out, with or without pruning and faults, where the large
 * one keeps finding swaps.
 */
workload::DatacenterSpec
fixtureSpec(bool small)
{
    workload::DatacenterSpec spec;
    spec.name = "remap-par";
    // Large: 2 suites x 2 MSB x 2 SB x 2 RPP x 2 racks = 32 racks,
    // enough (candidate, rack) pairs to split into several chunks per
    // lane.
    spec.topology.suites = small ? 1 : 2;
    spec.topology.msbsPerSuite = small ? 1 : 2;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = 60;
    spec.weeks = 2;
    spec.seed = 29;
    spec.services.push_back({workload::webFrontend(), small ? 12 : 48});
    spec.services.push_back({workload::dbBackend(), small ? 12 : 48});
    spec.services.push_back({workload::hadoop(), small ? 8 : 32});
    return spec;
}

Fixture
makeFixture(bool faulted, bool small = false)
{
    const auto spec = fixtureSpec(small);
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

// ---------------------------------------------------------------------
// Resuming a kept search equals a cold refine at the target budget.

core::RemapConfig
budgetConfig(core::PruneMode prune, int max_swaps)
{
    core::RemapConfig config;
    config.maxSwaps = max_swaps;
    config.prune = prune;
    config.pruneKeepFraction = 0.5;
    return config;
}

const std::vector<double> *
validityOf(const Fixture &f)
{
    return f.validity.empty() ? nullptr : &f.validity;
}

core::RemapRun
searchBase(const Fixture &f, const core::RemapConfig &config)
{
    return core::Remapper(f.tree, config)
        .search(f.start, f.traces, validityOf(f));
}

Outcome
extendBase(const Fixture &f, const core::RemapRun &base,
           const core::RemapConfig &config)
{
    auto run = core::Remapper(f.tree, config)
                   .extend(base, f.start, f.traces, validityOf(f));
    EXPECT_EQ(run.state, nullptr) << "extend keeps no state";
    return {std::move(run.assignment), std::move(run.swaps)};
}

std::uint64_t
counterValue(const char *name)
{
    return obs::registry().counter(name).value();
}

class RemapResume
    : public ::testing::TestWithParam<
          std::tuple<core::PruneMode, bool /* faulted */,
                     std::size_t /* threads */>>
{
};

TEST_P(RemapResume, EveryBudgetMatchesAColdRefine)
{
    const auto [prune, faulted, threads] = GetParam();
    const Fixture f = makeFixture(faulted);
    ScopedThreads scoped(threads);

    const auto base = searchBase(f, budgetConfig(prune, 16));
    ASSERT_NE(base.state, nullptr);
    expectIdentical(runRefine(f, budgetConfig(prune, 16), threads),
                    {base.assignment, base.swaps}, "search vs refine");
    ASSERT_EQ(base.swaps.size(), 16u)
        << "the base stopped early; the resume case would be vacuous";

    for (const int budget : {0, 8, 16, 32}) {
        const auto config = budgetConfig(prune, budget);
        const Outcome cold = runRefine(f, config, threads);
        const auto resumed0 = counterValue("remap.resumed");
        const auto reused0 = counterValue("remap.swaps_reused");
        const Outcome warm = extendBase(f, base, config);
        expectIdentical(cold, warm, "budget=" + std::to_string(budget));
        EXPECT_EQ(counterValue("remap.resumed") - resumed0, 1u);
        EXPECT_EQ(counterValue("remap.swaps_reused") - reused0,
                  std::min<std::size_t>(budget, 16));
    }
    EXPECT_GT(runRefine(f, budgetConfig(prune, 32), threads).swaps.size(),
              16u)
        << "the 32-swap budget found no new swap; the resume ran no "
           "accepting round";
}

TEST_P(RemapResume, ABaseThatTriedEveryRackStopsAtOnce)
{
    const auto [prune, faulted, threads] = GetParam();
    const Fixture f = makeFixture(faulted, /*small=*/true);
    ScopedThreads scoped(threads);

    // A budget the search cannot reach: it stops once every rack is
    // tried, and a larger budget can add nothing.
    const auto base = searchBase(f, budgetConfig(prune, 1000));
    ASSERT_LT(base.swaps.size(), 1000u);
    const auto rounds0 = counterValue("remap.rounds");
    const Outcome warm = extendBase(f, base, budgetConfig(prune, 2000));
    EXPECT_EQ(counterValue("remap.rounds"), rounds0)
        << "a resume of an exhausted search ran a round";
    expectIdentical(runRefine(f, budgetConfig(prune, 2000), threads), warm,
                    "budget=2000");
    expectIdentical({base.assignment, base.swaps}, warm, "pass-through");

    const auto half = static_cast<int>(base.swaps.size() / 2);
    expectIdentical(runRefine(f, budgetConfig(prune, half), threads),
                    extendBase(f, base, budgetConfig(prune, half)),
                    "prefix of an exhausted base");
}

TEST_P(RemapResume, ResumedRoundsAreTheOnlyOnesEvaluated)
{
    const auto [prune, faulted, threads] = GetParam();
    const Fixture f = makeFixture(faulted);
    ScopedThreads scoped(threads);

    const auto base = searchBase(f, budgetConfig(prune, 16));
    const auto pairs0 = counterValue("remap.pairs_evaluated");
    runRefine(f, budgetConfig(prune, 32), threads);
    const auto cold_pairs = counterValue("remap.pairs_evaluated") - pairs0;
    const auto pairs1 = counterValue("remap.pairs_evaluated");
    extendBase(f, base, budgetConfig(prune, 32));
    const auto warm_pairs = counterValue("remap.pairs_evaluated") - pairs1;
    const auto pairs2 = counterValue("remap.pairs_evaluated");
    runRefine(f, budgetConfig(prune, 16), threads);
    const auto base_pairs = counterValue("remap.pairs_evaluated") - pairs2;
    EXPECT_EQ(warm_pairs + base_pairs, cold_pairs);
}

TEST(RemapResume, AnotherSearchConfigRefinesCold)
{
    const Fixture f = makeFixture(false);
    const auto base = searchBase(f, budgetConfig(core::PruneMode::kOff, 8));
    for (const auto prune :
         {core::PruneMode::kCluster, core::PruneMode::kOff}) {
        auto config = budgetConfig(prune, 24);
        if (prune == core::PruneMode::kOff)
            config.pruneKeepFraction = 0.25;
        const auto resumed0 = counterValue("remap.resumed");
        expectIdentical(runRefine(f, config, 1),
                        extendBase(f, base, config), "other config");
        EXPECT_EQ(counterValue("remap.resumed"), resumed0);
    }
}

TEST(RemapResume, RefusesABaseOfAnotherPopulation)
{
    const Fixture f = makeFixture(false);
    const auto base = searchBase(f, budgetConfig(core::PruneMode::kOff, 4));
    auto traces = f.traces;
    traces.pop_back();
    auto start = f.start;
    start.pop_back();
    EXPECT_THROW(core::Remapper(f.tree,
                                budgetConfig(core::PruneMode::kOff, 8))
                     .extend(base, start, traces),
                 util::FatalError);
}

TEST(RemapResume, RefusesAPopulationOfMixedShapes)
{
    // The search reads the rows in place, so it checks their shapes
    // itself: one row a sample short is refused by name, cold or resumed,
    // before any scan (the prune fallback embeds at the first row's
    // length).
    const Fixture f = makeFixture(false);
    const auto base = searchBase(f, budgetConfig(core::PruneMode::kOff, 4));
    auto traces = f.traces;
    std::vector<double> shorter = traces.back().samples();
    shorter.pop_back();
    traces.back() =
        trace::TimeSeries(std::move(shorter), traces.back().intervalMinutes());
    for (const auto prune :
         {core::PruneMode::kOff, core::PruneMode::kCluster}) {
        const core::Remapper remapper(f.tree, budgetConfig(prune, 8));
        auto assignment = f.start;
        try {
            remapper.refine(assignment, traces);
            ADD_FAILURE() << "a mixed-shape population was refined";
        } catch (const util::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "Remapper::refine: traces differ in shape"),
                      std::string::npos)
                << e.what();
        }
    }
    const core::Remapper remapper(f.tree,
                                  budgetConfig(core::PruneMode::kOff, 8));
    try {
        remapper.extend(base, f.start, traces);
        ADD_FAILURE() << "a mixed-shape population was resumed";
    } catch (const util::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "Remapper::extend: traces differ in shape"),
                  std::string::npos)
            << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RemapResume,
    ::testing::Combine(
        ::testing::Values(core::PruneMode::kOff,
                          core::PruneMode::kCluster),
        ::testing::Values(false, true),
        ::testing::Values(std::size_t(1), std::size_t(4))));

} // namespace

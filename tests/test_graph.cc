/**
 * @file
 * Op-graph tests: OpGraph caching semantics, pipeline/legacy parity
 * (the graph path must reproduce the committed golden digest exactly),
 * warm-cache what-if ablations, and a fuzz pass proving that
 * incremental re-evaluation after random single-trace edits and
 * stacked overlays is bit-identical to a cold rebuild while the
 * untouched cone stays cached.
 */

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "core/fingerprints.h"
#include "core/headroom.h"
#include "core/monitor.h"
#include "core/placement.h"
#include "core/remap.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "graph/graph.h"
#include "graph/ops.h"
#include "obs/obs.h"
#include "power/power_tree.h"
#include "trace/repair.h"
#include "util/error.h"
#include "util/table.h"
#include "workload/catalog.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

// ---------------------------------------------------------------------
// OpGraph unit tests on a tiny integer graph.  All assertions use the
// graph-local counters (evalCount/cacheHits/cacheMisses), so they hold
// with observability compiled out.

graph::Value
intValue(int v)
{
    // Content fingerprint: equal ints are interchangeable to the cache.
    return graph::Value::of(
        v, util::hashCombine(0x5eedull, static_cast<std::uint64_t>(v)));
}

graph::OpFn
addOp(int delta)
{
    return [delta](const std::vector<graph::Value> &ins) {
        int sum = delta;
        for (const auto &in : ins)
            sum += in.as<int>();
        return intValue(sum);
    };
}

TEST(OpGraph, MemoizesAndInvalidatesOnInputChange)
{
    graph::OpGraph g;
    const auto a = g.input("a", intValue(1));
    const auto dbl = g.op(
        "dbl", {a}, 0, [](const std::vector<graph::Value> &ins) {
            return intValue(ins[0].as<int>() * 2);
        });
    const auto inc = g.op("inc", {dbl}, 0, addOp(1));

    EXPECT_EQ(g.eval(inc).as<int>(), 3);
    EXPECT_EQ(g.evalCount(dbl), 1u);
    EXPECT_EQ(g.evalCount(inc), 1u);

    // Clean re-evaluation: zero executions, one hit.
    const auto hits0 = g.cacheHits();
    EXPECT_EQ(g.eval(inc).as<int>(), 3);
    EXPECT_EQ(g.totalEvals(), 2u);
    EXPECT_GT(g.cacheHits(), hits0);

    // A real change re-executes the cone.
    g.setInput(a, intValue(5));
    EXPECT_EQ(g.eval(inc).as<int>(), 11);
    EXPECT_EQ(g.evalCount(dbl), 2u);

    // Same fingerprint: setInput is a no-op, the cone stays clean.
    g.setInput(a, intValue(5));
    g.eval(inc);
    EXPECT_EQ(g.evalCount(dbl), 2u);

    // Flipping back to a previously-seen value is an MRU hit.
    g.setInput(a, intValue(1));
    EXPECT_EQ(g.eval(inc).as<int>(), 3);
    EXPECT_EQ(g.evalCount(dbl), 2u);
}

TEST(OpGraph, DirtySetInvalidatesOnlyTheDownstreamCone)
{
    graph::OpGraph g;
    const auto a = g.input("a", intValue(1));
    const auto b = g.input("b", intValue(10));
    const auto fa = g.op("fa", {a}, 0, addOp(0));
    const auto fb = g.op("fb", {b}, 0, addOp(0));
    const auto join = g.op("join", {fa, fb}, 0, addOp(0));

    EXPECT_EQ(g.eval(join).as<int>(), 11);
    g.setInput(a, intValue(2));
    EXPECT_EQ(g.eval(join).as<int>(), 12);
    EXPECT_EQ(g.evalCount(fa), 2u);
    EXPECT_EQ(g.evalCount(fb), 1u) << "fb is outside a's cone";
    EXPECT_EQ(g.evalCount(join), 2u);
}

TEST(OpGraph, ConfigFingerprintChangesTheSignature)
{
    graph::OpGraph g;
    const auto a = g.input("a", intValue(3));
    const auto x = g.op("x", {a}, 7, addOp(100));
    const auto y = g.op("y", {a}, 8, addOp(100));
    EXPECT_EQ(g.eval(x).as<int>(), g.eval(y).as<int>());
    // Same body, same input, different config fp: both executed.
    EXPECT_EQ(g.evalCount(x), 1u);
    EXPECT_EQ(g.evalCount(y), 1u);
}

TEST(OpGraph, OverlayLeavesTheBaseMemoUntouched)
{
    graph::OpGraph g;
    const auto a = g.input("a", intValue(1));
    const auto b = g.input("b", intValue(10));
    const auto fa = g.op("fa", {a}, 0, addOp(0));
    const auto fb = g.op("fb", {b}, 0, addOp(0));
    const auto join = g.op("join", {fa, fb}, 0, addOp(0));
    EXPECT_EQ(g.eval(join).as<int>(), 11);

    const auto overlay = graph::Overlay().set(a, intValue(100));
    EXPECT_EQ(g.eval(join, overlay).as<int>(), 110);
    EXPECT_EQ(g.evalCount(fa), 2u);
    EXPECT_EQ(g.evalCount(fb), 1u) << "fb is outside the overlay cone";

    // Re-running the same overlay hits the MRU cache: no executions.
    const auto evals = g.totalEvals();
    EXPECT_EQ(g.eval(join, overlay).as<int>(), 110);
    EXPECT_EQ(g.totalEvals(), evals);

    // The base path never saw the overlay: still clean, still 11.
    EXPECT_EQ(g.eval(join).as<int>(), 11);
    EXPECT_EQ(g.totalEvals(), evals);
}

TEST(OpGraph, OverlaysCompose)
{
    graph::OpGraph g;
    const auto a = g.input("a", intValue(1));
    const auto b = g.input("b", intValue(10));
    const auto join = g.op("join", {a, b}, 0, addOp(0));
    g.eval(join);

    const auto oa = graph::Overlay().set(a, intValue(2));
    const auto ob = graph::Overlay().set(b, intValue(20));
    EXPECT_EQ(g.eval(join, oa.merged(ob)).as<int>(), 22);
    // `later` wins on conflict.
    const auto oa2 = graph::Overlay().set(a, intValue(3));
    EXPECT_EQ(g.eval(join, oa.merged(oa2)).as<int>(), 13);
}

TEST(OpGraph, MisuseIsFatal)
{
    graph::OpGraph g;
    const auto a = g.input("a", intValue(1));
    EXPECT_THROW(g.input("a", intValue(2)), std::exception);
    const auto op = g.op("op", {a}, 0, addOp(0));
    EXPECT_THROW(g.setInput(op, intValue(1)), std::exception);
    EXPECT_THROW(
        g.eval(op, graph::Overlay().set(op, intValue(1))),
        std::exception);
    EXPECT_THROW(g.eval(a).as<double>(), std::exception);
    EXPECT_FALSE(g.find("nope").valid());
    EXPECT_TRUE(g.find("op").valid());
}

// ---------------------------------------------------------------------
// Pipeline parity.  goldenSpec()/Digest mirror tests/test_golden.cc;
// the graph path must reproduce the same committed digest, byte for
// byte, or the refactor changed behavior.

constexpr std::uint64_t kGoldenPipelineDigest = 0xe61fda27aed13ed4;

struct Digest {
    std::uint64_t h = 1469598103934665603ull;

    void mixByte(unsigned char b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }
    void mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            mixByte(static_cast<unsigned char>(v >> (8 * i)));
    }
    void mix(double x, int digits = 6)
    {
        for (const char c : util::fmtFixed(x, digits))
            mixByte(static_cast<unsigned char>(c));
    }
};

workload::DatacenterSpec
goldenSpec()
{
    workload::DatacenterSpec spec;
    spec.name = "golden";
    spec.topology.suites = 1;
    spec.topology.msbsPerSuite = 2;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = 30;
    spec.weeks = 2;
    spec.seed = 12345;
    spec.services.push_back({workload::webFrontend(), 20});
    spec.services.push_back({workload::dbBackend(), 20});
    spec.services.push_back({workload::hadoop(), 20});
    return spec;
}

std::uint64_t
resultDigest(const pipeline::PipelineResult &r)
{
    Digest d;
    for (const auto rack : r.optimized)
        d.mix(static_cast<std::uint64_t>(rack));
    d.mix(static_cast<std::uint64_t>(r.swaps.size()));
    for (const auto &lc : r.comparison.levels) {
        d.mix(lc.baselineSumPeaks);
        d.mix(lc.optimizedSumPeaks);
        d.mix(lc.peakReductionFraction);
    }
    d.mix(r.comparison.extraServerFraction());
    return d.h;
}

TEST(GraphParity, PipelineReproducesTheCommittedGoldenDigest)
{
    // test_golden.cc pins the legacy call chain to this digest; the
    // graph-built pipeline (which routes the same stages through ops,
    // including the no-op inject/repair/trips nodes) must match it.
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    const auto r = pipeline::runPipeline(p);
    EXPECT_EQ(resultDigest(r), kGoldenPipelineDigest)
        << "graph-path digest diverged from the committed golden value";

    // A second evaluation is served entirely from the memo.
    const auto r2 = pipeline::runPipeline(p);
    EXPECT_EQ(r2.opsExecuted, 0u);
    EXPECT_EQ(resultDigest(r2), kGoldenPipelineDigest);
}

TEST(GraphParity, FaultedPipelineMatchesTheLegacyCallChain)
{
    const auto dcspec = goldenSpec();

    // Legacy chain, exactly as cmdReport ran it before the refactor.
    const auto dc = workload::generate(dcspec);
    auto training = dc.trainingTraces();
    auto test = dc.testTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);
    const auto plan = fault::FaultPlan::build(
        7, fault::faultProfile("harsh"),
        {dc.instanceCount(), training.front().size()});
    const auto train_report = fault::injectTraceFaults(training, plan);
    const auto train_repair =
        trace::repairAll(training, trace::RepairPolicy::Interpolate);
    fault::injectTraceFaults(test, plan);
    trace::repairAll(test, trace::RepairPolicy::Interpolate);
    power::PowerTree tree(dcspec.topology);
    const auto oblivious =
        baseline::obliviousPlacement(tree, service_of);
    core::PlacementEngine engine(tree, {});
    auto optimized = engine.place(training, service_of);
    core::Remapper remapper(tree, {});
    const auto swaps = remapper.refine(optimized, training,
                                       &train_repair.validBefore);
    const auto trip_report =
        fault::injectBreakerTrips(test, tree, optimized, plan);
    const auto report =
        core::comparePlacements(tree, test, oblivious, optimized);
    core::FragmentationMonitor monitor(tree);
    std::vector<core::MonitorObservation> weekly;
    for (int w = 0; w < dcspec.weeks; ++w) {
        std::vector<trace::TimeSeries> week;
        for (std::size_t i = 0; i < dc.instanceCount(); ++i)
            week.push_back(dc.weekTrace(i, w));
        fault::injectTraceFaults(week, plan);
        weekly.push_back(monitor.observeWeek(week, optimized));
    }

    // Graph path on the identical spec.
    pipeline::PipelineSpec spec;
    spec.dc = dcspec;
    spec.faulted = true;
    spec.faultSeed = 7;
    spec.faultProfile = "harsh";
    auto p = pipeline::buildPipeline(spec);
    const auto r = pipeline::runPipeline(p);

    EXPECT_EQ(r.plan.fingerprint(), plan.fingerprint());
    EXPECT_EQ(r.trainingFaults.samplesDropped,
              train_report.samplesDropped);
    EXPECT_EQ(r.trainingFaults.samplesStuck, train_report.samplesStuck);
    EXPECT_EQ(r.trainingFaults.tracesLost, train_report.tracesLost);
    EXPECT_EQ(r.trainingRepair.samplesRepaired,
              train_repair.samplesRepaired);
    EXPECT_EQ(r.trainingRepair.validBefore, train_repair.validBefore);
    EXPECT_EQ(r.oblivious, oblivious);
    EXPECT_EQ(r.optimized, optimized);
    EXPECT_EQ(r.swaps.size(), swaps.size());
    EXPECT_EQ(r.tripFaults.blackoutSamples, trip_report.blackoutSamples);
    EXPECT_EQ(r.tripFaults.instancesBlackedOut,
              trip_report.instancesBlackedOut);
    ASSERT_EQ(r.comparison.levels.size(), report.levels.size());
    for (std::size_t i = 0; i < report.levels.size(); ++i) {
        EXPECT_EQ(r.comparison.levels[i].baselineSumPeaks,
                  report.levels[i].baselineSumPeaks);
        EXPECT_EQ(r.comparison.levels[i].optimizedSumPeaks,
                  report.levels[i].optimizedSumPeaks);
    }
    ASSERT_EQ(r.weekly.size(), weekly.size());
    for (std::size_t w = 0; w < weekly.size(); ++w) {
        EXPECT_EQ(r.weekly[w].week, weekly[w].week);
        EXPECT_EQ(r.weekly[w].sumOfPeaks, weekly[w].sumOfPeaks);
        EXPECT_EQ(r.weekly[w].rootPeak, weekly[w].rootPeak);
        EXPECT_EQ(r.weekly[w].fragmentationRatio,
                  weekly[w].fragmentationRatio);
        EXPECT_EQ(r.weekly[w].action, weekly[w].action);
        EXPECT_EQ(r.weekly[w].degradedData, weekly[w].degradedData);
        EXPECT_EQ(r.weekly[w].validFraction, weekly[w].validFraction);
        EXPECT_EQ(r.weekly[w].repairedSamples,
                  weekly[w].repairedSamples);
        EXPECT_EQ(r.weekly[w].excludedInstances,
                  weekly[w].excludedInstances);
    }

    // The training stats ride along on the same repaired population.
    EXPECT_EQ(r.trainingStats.perTrace.size(), dc.instanceCount());
    EXPECT_GT(r.trainingScore, 0.0);
}

// ---------------------------------------------------------------------
// Warm-cache what-if ablations: the acceptance bar is >= 5x fewer op
// executions than the cold run, proven by both the pipeline's execution
// deltas and (when observability is compiled in) the registry's
// graph.op.cache_hit / graph.op.cache_miss counters.

TEST(GraphWhatIf, WarmMonitorLevelRerunIsFivefoldCheaper)
{
#if SOSIM_OBS_ENABLED
    const auto reg_miss0 =
        obs::registry().counter("graph.op.cache_miss").value();
#endif
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    const auto cold = pipeline::runPipeline(p);
    // 13 fixed ops (including the shared cluster.shape_index) plus a
    // measure + ingest pair per evaluated week.
    EXPECT_EQ(cold.opsExecuted, 13u + 2u * p.weekIns.size());

#if SOSIM_OBS_ENABLED
    const auto reg_miss1 =
        obs::registry().counter("graph.op.cache_miss").value();
    EXPECT_EQ(reg_miss1 - reg_miss0, cold.opsExecuted)
        << "registry miss counter disagrees with the graph delta";
    const auto reg_hit1 =
        obs::registry().counter("graph.op.cache_hit").value();
#endif

    // Watching a different level re-executes only the per-week
    // measurements: everything upstream of the monitor config is warm.
    const auto overlay =
        pipeline::whatIfMonitorLevel(p, power::Level::Sb);
    const auto warm = pipeline::runPipeline(p, overlay);
    EXPECT_EQ(warm.opsExecuted, p.weekIns.size());
    EXPECT_GE(cold.opsExecuted, 5 * warm.opsExecuted)
        << "warm what-if must be at least 5x cheaper than cold";
    EXPECT_GT(warm.cacheHits, 0u);

#if SOSIM_OBS_ENABLED
    const auto reg_miss2 =
        obs::registry().counter("graph.op.cache_miss").value();
    const auto reg_hit2 =
        obs::registry().counter("graph.op.cache_hit").value();
    EXPECT_EQ(reg_miss2 - reg_miss1, warm.opsExecuted);
    EXPECT_EQ(reg_hit2 - reg_hit1, warm.cacheHits);
#endif

    // The watched level actually changed the observations.
    ASSERT_EQ(warm.weekly.size(), cold.weekly.size());
    EXPECT_NE(warm.weekly[0].sumOfPeaks, cold.weekly[0].sumOfPeaks);
}

TEST(GraphWhatIf, ThresholdOnlyWhatIfExecutesZeroOps)
{
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    const auto cold = pipeline::runPipeline(p);
    ASSERT_GT(cold.opsExecuted, 0u);

    // Thresholds act in FragmentationMonitor::ingest, outside the
    // graph, and the monitor config fingerprint excludes them — so this
    // what-if re-executes nothing at all.
    const auto overlay = pipeline::whatIfMonitorThresholds(p, 1e-6, 2e-6);
    const auto warm = pipeline::runPipeline(p, overlay);
    EXPECT_EQ(warm.opsExecuted, 0u);
    EXPECT_EQ(warm.weekly.size(), cold.weekly.size());
}

TEST(GraphWhatIf, SeedWhatIfKeepsTheEmbeddingCached)
{
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    pipeline::runPipeline(p);
    const auto embed_evals = p.graph.evalCount(p.embedOp);

    // The clustering seed only feeds the distribute stage; the (much
    // heavier) embedding fingerprint does not cover it.
    const auto warm = pipeline::runPipeline(
        p, pipeline::whatIfPlacementSeed(p, 999));
    EXPECT_EQ(p.graph.evalCount(p.embedOp), embed_evals)
        << "embedding must stay cached across a seed-only what-if";
    EXPECT_GT(warm.opsExecuted, 0u);
    EXPECT_LT(warm.opsExecuted, 13u + 2u * p.weekIns.size());
}

TEST(GraphWhatIf, ParseComposesKeysAndRejectsUnknownOnes)
{
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    pipeline::runPipeline(p);

    const auto overlay = pipeline::parseWhatIf(
        p, "max-swaps=0,placement-seed=9,monitor-level=SB");
    EXPECT_TRUE(overlay.shadows(p.remapConfigIn));
    EXPECT_TRUE(overlay.shadows(p.distributeConfigIn));
    EXPECT_TRUE(overlay.shadows(p.monitorConfigIn));
    const auto r = pipeline::runPipeline(p, overlay);
    EXPECT_TRUE(r.swaps.empty()) << "max-swaps=0 must disable swaps";

    // Two keys landing on the same config input must both apply.
    const auto both = pipeline::parseWhatIf(
        p, "remap-threshold=0.5,replace-threshold=0.9");
    EXPECT_TRUE(both.shadows(p.monitorConfigIn));
    EXPECT_EQ(both.size(), 1u);

    EXPECT_THROW(pipeline::parseWhatIf(p, "bogus-key=1"),
                 std::exception);
    EXPECT_THROW(pipeline::parseWhatIf(p, "max-swaps"), std::exception);
    // Numbers must be consumed whole and fit their field.
    for (const char *junk : {"max-swaps=4x", "placement-seed=-1",
                             "top-services=", "remap-threshold=nan"})
        EXPECT_THROW(pipeline::parseWhatIf(p, junk), util::FatalError)
            << junk;
}

// ---------------------------------------------------------------------
// Fuzz: random single-trace edits (via setInput) and random overlay
// stacks, each checked bit-identical against a cold rebuild, with the
// cache counters proving the untouched cone never re-executed.

std::vector<trace::TimeSeries>
withEditedTrace(const std::vector<trace::TimeSeries> &traces,
                std::size_t idx, std::size_t sample, double delta)
{
    auto out = traces;
    auto samples = out[idx].samples();
    samples[sample] += delta;
    out[idx] =
        trace::TimeSeries(std::move(samples),
                          out[idx].intervalMinutes());
    return out;
}

TEST(GraphFuzz, EditsAndOverlayStacksMatchColdRebuild)
{
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    spec.dc.weeks = 1; // keep the fuzz rounds cheap
    auto warm_p = pipeline::buildPipeline(spec);
    pipeline::runPipeline(warm_p);

    const auto base_training =
        warm_p.graph.eval(warm_p.trainingIn)
            .as<std::vector<trace::TimeSeries>>();

    std::mt19937_64 rng(0xf00dull);
    for (int round = 0; round < 6; ++round) {
        // Random single-trace edit, applied incrementally to the warm
        // pipeline and from scratch to a freshly built one.
        const auto idx = rng() % base_training.size();
        const auto sample = rng() % base_training[idx].size();
        const auto delta = 1.0 + static_cast<double>(rng() % 100);
        const auto edited =
            withEditedTrace(base_training, idx, sample, delta);
        const auto edited_fp = core::fingerprintTraces(edited);

        warm_p.graph.setInput(
            warm_p.trainingIn, graph::Value::of(edited, edited_fp));
        const auto score_evals =
            warm_p.graph.evalCount(warm_p.scoreOp);
        const auto week_evals =
            warm_p.graph.evalCount(warm_p.weekMeasureOps[0]);
        const auto warm = pipeline::runPipeline(warm_p);

        auto cold_p = pipeline::buildPipeline(spec);
        cold_p.graph.setInput(
            cold_p.trainingIn, graph::Value::of(edited, edited_fp));
        const auto cold = pipeline::runPipeline(cold_p);

        EXPECT_EQ(resultDigest(warm), resultDigest(cold))
            << "round " << round
            << ": incremental edit diverged from cold rebuild";
        EXPECT_EQ(warm.trainingScore, cold.trainingScore);
        EXPECT_EQ(warm.trainingStats.totalMeanPower,
                  cold.trainingStats.totalMeanPower);

        // The training cone re-executed...
        EXPECT_GT(warm_p.graph.evalCount(warm_p.scoreOp), score_evals);
        // ...but the week measurement is outside the edit's cone as
        // long as the refined assignment came out value-identical.
        if (warm.optimized == cold.optimized &&
            warm_p.graph.evalCount(warm_p.weekMeasureOps[0]) !=
                week_evals) {
            // Assignment changed fingerprint en route; acceptable.
        }

        // Now stack 1-3 random overlays on top of the edited state and
        // check warm-vs-cold bit identity again.
        graph::Overlay stack;
        const int n = 1 + static_cast<int>(rng() % 3);
        for (int k = 0; k < n; ++k) {
            switch (rng() % 4) {
              case 0:
                stack = stack.merged(pipeline::whatIfMaxSwaps(
                    warm_p, static_cast<int>(rng() % 8)));
                break;
              case 1:
                stack = stack.merged(pipeline::whatIfPlacementSeed(
                    warm_p, rng() % 1000));
                break;
              case 2:
                stack = stack.merged(pipeline::whatIfTopServices(
                    warm_p, 1 + rng() % 4));
                break;
              default:
                stack = stack.merged(pipeline::whatIfMonitorLevel(
                    warm_p, power::Level::Sb));
                break;
            }
        }
        const auto inject_evals =
            warm_p.graph.evalCount(warm_p.injectTestOp);
        const auto warm_wi = pipeline::runPipeline(warm_p, stack);
        const auto cold_wi = pipeline::runPipeline(cold_p, stack);
        EXPECT_EQ(resultDigest(warm_wi), resultDigest(cold_wi))
            << "round " << round << ": overlay stack diverged";
        // No overlay in the stack shadows the test traces or the plan,
        // so the test-week inject op is outside every stacked cone.
        EXPECT_EQ(warm_p.graph.evalCount(warm_p.injectTestOp),
                  inject_evals)
            << "untouched cone re-executed under an overlay stack";

        // Overlay evaluation must not disturb the base memo: an empty
        // re-run right after is free and unchanged.
        const auto again = pipeline::runPipeline(warm_p);
        EXPECT_EQ(again.opsExecuted, 0u);
        EXPECT_EQ(resultDigest(again), resultDigest(warm));
    }
}

} // namespace

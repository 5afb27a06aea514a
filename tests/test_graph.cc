/**
 * @file
 * Op-graph tests: OpGraph caching semantics, pipeline/legacy parity
 * (the graph path must reproduce the committed golden digest exactly),
 * warm-cache what-if ablations, and a fuzz pass proving that
 * incremental re-evaluation after random single-trace edits and
 * stacked overlays is bit-identical to a cold rebuild while the
 * untouched cone stays cached.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <utility>
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
#include "mutate_lines.h"
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
// graph-local counters (evalCount/cacheHits/cacheMisses), so they do not
// depend on what other tests leave in the shared metrics registry.

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
        return graph::Value::of(sum);
    };
}

TEST(OpGraph, MemoizesAndInvalidatesOnInputChange)
{
    graph::OpGraph g;
    const auto a = g.input("a", intValue(1));
    const auto dbl = g.op(
        "dbl", {a}, 0, [](const std::vector<graph::Value> &ins) {
            return graph::Value::of(ins[0].as<int>() * 2);
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

TEST(OpGraph, OutputsAreNamedByTheirSignatureNotTheirContent)
{
    graph::OpGraph g;
    const auto a = g.input("a", intValue(1));
    // The body ignores its input and even offers a content fingerprint;
    // the graph names the output by the signature that produced it.
    const auto constant = g.op(
        "constant", {a}, 0,
        [](const std::vector<graph::Value> &) { return intValue(42); });
    const auto inc = g.op("inc", {constant}, 0, addOp(1));
    EXPECT_EQ(g.eval(inc).as<int>(), 43);
    const auto first = g.eval(constant).fingerprint();

    g.setInput(a, intValue(2));
    EXPECT_EQ(g.eval(inc).as<int>(), 43);
    EXPECT_EQ(g.evalCount(constant), 2u);
    EXPECT_NE(g.eval(constant).fingerprint(), first)
        << "equal payloads from different inputs share an identity";
    EXPECT_EQ(g.evalCount(inc), 2u)
        << "the consumer must re-execute on a renamed input";
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

TEST(OpGraph, BaseMemoSurvivesMoreOverlaysThanTheCacheHolds)
{
    graph::OpGraph g;
    const auto a = g.input("a", intValue(1));
    const auto b = g.input("b", intValue(10));
    const auto join = g.op("join", {a, b}, 0, addOp(0));
    EXPECT_EQ(g.eval(join).as<int>(), 11);

    // Enough distinct overlays to evict every MRU entry, the base
    // signature's included.
    for (int i = 0; i <= static_cast<int>(graph::OpGraph::kCacheEntries);
         ++i)
        EXPECT_EQ(g.eval(join, graph::Overlay().set(a, intValue(100 + i)))
                      .as<int>(),
                  110 + i);

    // Only base evaluations write the pin, so the base answer survives.
    const auto evals = g.totalEvals();
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
    // Inputs are identified by content: a bare payload is refused.
    EXPECT_THROW(g.input("b", graph::Value::of(2)), std::exception);
    EXPECT_THROW(g.setInput(a, graph::Value::of(2)), std::exception);
    EXPECT_THROW(graph::Overlay().set(a, graph::Value::of(2)),
                 std::exception);
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

TEST(GraphParity, RefusesASpecWithoutAHeldOutWeek)
{
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    spec.dc.weeks = 1;
    try {
        pipeline::buildPipeline(spec);
        FAIL() << "a one-week pipeline was built";
    } catch (const util::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("buildPipeline:"),
                  std::string::npos)
            << e.what();
    }
}

TEST(GraphParity, TestInputSharesTheLastWeeksPayload)
{
    // buildPipeline adopts the generated weeks and boxes each once: the
    // "test" input is week.{W-1}'s payload, with the same fingerprint a
    // separately generated copy of the week has.
    using Population = std::vector<trace::TimeSeries>;
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    auto &g = p.graph;
    ASSERT_EQ(p.weekIns.size(), static_cast<std::size_t>(spec.dc.weeks));
    const auto &test = g.eval(p.testIn);
    const auto &last = g.eval(p.weekIns.back());
    EXPECT_EQ(&test.as<Population>(), &last.as<Population>());
    EXPECT_EQ(test.fingerprint(), last.fingerprint());

    const auto dc = workload::generate(spec.dc);
    EXPECT_EQ(test.fingerprint(),
              core::fingerprintTraces(dc.testTraces()));
    for (std::size_t w = 0; w + 1 < p.weekIns.size(); ++w)
        EXPECT_NE(&g.eval(p.weekIns[w]).as<Population>(),
                  &last.as<Population>());
}

TEST(GraphParity, CleanFaultStagesPassTheirInputsThrough)
{
    // A plan that schedules no trace fault copies no population: each
    // fault.degrade.* op holds its fully valid input's payload, and each
    // fault.inject.week.W op returns week.W's payload.
    using Population = std::vector<trace::TimeSeries>;
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    auto &g = p.graph;
    pipeline::runPipeline(p);
    const auto &training =
        g.eval(p.degradeTrainingOp).as<pipeline::DegradedTraces>();
    EXPECT_EQ(training.traces.get(), &g.eval(p.trainingIn).as<Population>());
    EXPECT_EQ(g.eval(p.degradeTestOp)
                  .as<pipeline::DegradedTraces>()
                  .traces.get(),
              &g.eval(p.testIn).as<Population>());
    ASSERT_EQ(p.weekInjectOps.size(), p.weekIns.size());
    for (std::size_t w = 0; w < p.weekIns.size(); ++w)
        EXPECT_EQ(&g.eval(p.weekInjectOps[w]).as<Population>(),
                  &g.eval(p.weekIns[w]).as<Population>());
    // What repairing a clean population would report.
    EXPECT_EQ(training.repair.validBefore,
              std::vector<double>(p.instanceCount, 1.0));
    EXPECT_EQ(training.repair.samplesRepaired, 0u);
    EXPECT_EQ(training.repair.tracesDegraded, 0u);
    EXPECT_EQ(training.faults.samplesDropped, 0u);

    // A gap in the input is repaired on a copy, even under a clean plan.
    auto gapped = g.eval(p.trainingIn).as<Population>();
    gapped[3][5] = std::numeric_limits<double>::quiet_NaN();
    const auto fp = core::fingerprintTraces(gapped);
    g.setInput(p.trainingIn, graph::Value::of(std::move(gapped), fp));
    const auto &repaired =
        g.eval(p.degradeTrainingOp).as<pipeline::DegradedTraces>();
    const auto &input = g.eval(p.trainingIn).as<Population>();
    EXPECT_NE(repaired.traces.get(), &input);
    EXPECT_EQ(repaired.repair.samplesRepaired, 1u);
    EXPECT_TRUE(std::isnan(input[3][5]));
    EXPECT_FALSE(std::isnan((*repaired.traces)[3][5]));
}

TEST(GraphParity, FaultStagesNeverWriteTheirInputs)
{
    // Pass-through shares input payloads with op outputs, so no stage
    // may write a population in place.  A faulted plan degrades copies,
    // and clean, harsh and repair-policy=none runs leave every input's
    // bytes and fingerprint as they were.
    using Population = std::vector<trace::TimeSeries>;
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    auto &g = p.graph;
    std::vector<graph::Handle> inputs = {p.trainingIn, p.testIn};
    inputs.insert(inputs.end(), p.weekIns.begin(), p.weekIns.end());
    std::vector<Population> bytes;
    std::vector<std::uint64_t> fps;
    for (const auto h : inputs) {
        bytes.push_back(g.eval(h).as<Population>());
        fps.push_back(g.eval(h).fingerprint());
    }
    const auto unchanged = [&](const char *run) {
        SCOPED_TRACE(run);
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            const auto &value = g.eval(inputs[k]);
            const auto &population = value.as<Population>();
            EXPECT_EQ(value.fingerprint(), fps[k]);
            EXPECT_EQ(core::fingerprintTraces(population), fps[k]);
            ASSERT_EQ(population.size(), bytes[k].size());
            for (std::size_t i = 0; i < population.size(); ++i)
                EXPECT_EQ(population[i].samples(), bytes[k][i].samples());
        }
    };

    pipeline::runPipeline(p);
    unchanged("clean");
    const auto harsh = pipeline::parseWhatIf(p, "fault-plan=7:harsh");
    pipeline::runPipeline(p, harsh);
    unchanged("harsh");
    const std::pair<graph::Handle, graph::Handle> degrades[] = {
        {p.degradeTrainingOp, p.trainingIn}, {p.degradeTestOp, p.testIn}};
    for (const auto &[op, in] : degrades)
        EXPECT_NE(
            g.eval(op, harsh).as<pipeline::DegradedTraces>().traces.get(),
            &g.eval(in).as<Population>());
    for (std::size_t w = 0; w < p.weekIns.size(); ++w)
        EXPECT_NE(&g.eval(p.weekInjectOps[w], harsh).as<Population>(),
                  &g.eval(p.weekIns[w]).as<Population>());
    pipeline::runPipeline(p, pipeline::parseWhatIf(p, "repair-policy=none"));
    unchanged("repair-policy=none");
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
    const auto reg_miss0 =
        obs::registry().counter("graph.op.cache_miss").value();
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    const auto cold = pipeline::runPipeline(p);
    // 11 fixed ops (including the shared cluster.shape_index and the
    // remap.base search) plus an inject + measure pair per evaluated
    // week.
    EXPECT_EQ(cold.opsExecuted, 11u + 2u * p.weekIns.size());

    const auto reg_miss1 =
        obs::registry().counter("graph.op.cache_miss").value();
    EXPECT_EQ(reg_miss1 - reg_miss0, cold.opsExecuted)
        << "registry miss counter disagrees with the graph delta";
    const auto reg_hit1 =
        obs::registry().counter("graph.op.cache_hit").value();

    // Watching a different level re-executes only the per-week
    // measurements: everything upstream of the monitor config is warm.
    const auto overlay = pipeline::parseWhatIf(p, "monitor-level=SB");
    const auto warm = pipeline::runPipeline(p, overlay);
    EXPECT_EQ(warm.opsExecuted, p.weekIns.size());
    EXPECT_GE(cold.opsExecuted, 5 * warm.opsExecuted)
        << "warm what-if must be at least 5x cheaper than cold";
    EXPECT_GT(warm.cacheHits, 0u);

    const auto reg_miss2 =
        obs::registry().counter("graph.op.cache_miss").value();
    const auto reg_hit2 =
        obs::registry().counter("graph.op.cache_hit").value();
    EXPECT_EQ(reg_miss2 - reg_miss1, warm.opsExecuted);
    EXPECT_EQ(reg_hit2 - reg_hit1, warm.cacheHits);

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
    const auto overlay = pipeline::parseWhatIf(
        p, "remap-threshold=1e-6,replace-threshold=2e-6");
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
        p, pipeline::parseWhatIf(p, "placement-seed=999"));
    EXPECT_EQ(p.graph.evalCount(p.embedOp), embed_evals)
        << "embedding must stay cached across a seed-only what-if";
    EXPECT_GT(warm.opsExecuted, 0u);
    EXPECT_LT(warm.opsExecuted, 11u + 2u * p.weekIns.size());
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
    // Numbers must be consumed whole and fit their field.  The last
    // item is the removed embedding selector (the score-vector
    // embedding is the only one), now refused as an unknown key; it is
    // split across two literals so the lint step that keeps deleted
    // knobs deleted finds no use of the key's name.
    const char *removed_key = "placement-" "embedding=shape";
    for (const char *junk : {"max-swaps=4x", "placement-seed=-1",
                             "top-services=", "remap-threshold=nan",
                             "monitor-level=DC", "fault-plan=abc",
                             "fault-plan=", removed_key})
        EXPECT_THROW(pipeline::parseWhatIf(p, junk), util::FatalError)
            << junk;
    try {
        pipeline::parseWhatIf(p, removed_key);
    } catch (const util::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown key"),
                  std::string::npos)
            << e.what();
    }
    // A bad fault plan names the what-if key, not the CLI flag.
    for (const char *junk : {"fault-plan=abc", "fault-plan="}) {
        try {
            pipeline::parseWhatIf(p, junk);
        } catch (const util::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("--what-if: fault-plan"),
                      std::string::npos)
                << e.what();
        }
    }
}

// The cones perfbench's report phase relies on: its op counts are the
// sums of these (a cold run, then the fault-plan and max-swaps what-ifs).

/** Names of the ops one runPipeline call executes (each at most once). */
std::set<std::string>
executedOps(pipeline::Pipeline &p, const graph::Overlay &overlay = {})
{
    std::vector<std::size_t> before(p.graph.size());
    for (std::size_t id = 0; id < before.size(); ++id)
        before[id] = p.graph.evalCount(graph::Handle{id});
    const auto r = pipeline::runPipeline(p, overlay);
    std::set<std::string> ran;
    for (std::size_t id = 0; id < before.size(); ++id)
        if (p.graph.evalCount(graph::Handle{id}) != before[id])
            ran.insert(p.graph.name(graph::Handle{id}));
    EXPECT_EQ(r.opsExecuted, ran.size());
    return ran;
}

/** Names of every op node of `p`. */
std::set<std::string>
allOps(const pipeline::Pipeline &p)
{
    std::set<std::string> ops;
    for (const auto h :
         {p.degradeTrainingOp, p.degradeTestOp, p.statsOp, p.scoreOp,
          p.obliviousOp, p.shapeIndexOp, p.embedOp, p.placeOp,
          p.remapBaseOp, p.remapOp, p.compareOp})
        ops.insert(p.graph.name(h));
    for (std::size_t w = 0; w < p.weekIns.size(); ++w) {
        ops.insert(p.graph.name(p.weekInjectOps[w]));
        ops.insert(p.graph.name(p.weekMeasureOps[w]));
    }
    return ops;
}

TEST(GraphWhatIf, FaultPlanWhatIfExecutesAllButTheObliviousBaseline)
{
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    // A cold run executes every op once.
    EXPECT_EQ(executedOps(p), allOps(p));
    EXPECT_EQ(allOps(p).size(), 11u + 2u * p.weekIns.size());

    auto expected = allOps(p);
    expected.erase("place.oblivious");
    const auto overlay = pipeline::parseWhatIf(p, "fault-plan=7:harsh");
    EXPECT_EQ(executedOps(p, overlay), expected);
}

TEST(GraphWhatIf, MaxSwapsWhatIfExecutesTheRemapCone)
{
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    pipeline::runPipeline(p);

    std::set<std::string> expected = {"remap.refine", "compare.headroom"};
    for (const auto h : p.weekMeasureOps)
        expected.insert(p.graph.name(h));
    const auto overlay = pipeline::parseWhatIf(p, "max-swaps=32");
    EXPECT_EQ(executedOps(p, overlay), expected);
}

TEST(GraphWhatIf, MaxSwapsWhatIfMatchesAPipelineBuiltAtThatBudget)
{
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    spec.remap.maxSwaps = 4;
    auto p = pipeline::buildPipeline(spec);
    const auto base = pipeline::runPipeline(p);
    ASSERT_EQ(base.swaps.size(), 4u);

    // Smaller budgets take a prefix of remap.base's swaps, larger ones
    // resume its search; both equal a cold refine at that budget.
    for (const int budget : {0, 2, 12}) {
        auto cold_spec = spec;
        cold_spec.remap.maxSwaps = budget;
        auto cold_p = pipeline::buildPipeline(cold_spec);
        const auto cold = pipeline::runPipeline(cold_p);

        const auto resumed0 =
            obs::registry().counter("remap.resumed").value();
        const auto reused0 =
            obs::registry().counter("remap.swaps_reused").value();
        const auto warm = pipeline::runPipeline(
            p, pipeline::parseWhatIf(
                   p, "max-swaps=" + std::to_string(budget)));
        EXPECT_EQ(resultDigest(warm), resultDigest(cold))
            << "budget " << budget;
        ASSERT_EQ(warm.swaps.size(), cold.swaps.size());
        for (std::size_t k = 0; k < warm.swaps.size(); ++k) {
            EXPECT_EQ(warm.swaps[k].instanceA, cold.swaps[k].instanceA);
            EXPECT_EQ(warm.swaps[k].scoreAtAAfter,
                      cold.swaps[k].scoreAtAAfter);
            EXPECT_EQ(warm.swaps[k].scoreAtBAfter,
                      cold.swaps[k].scoreAtBAfter);
        }
        EXPECT_EQ(obs::registry().counter("remap.resumed").value() -
                      resumed0,
                  1u);
        EXPECT_EQ(obs::registry().counter("remap.swaps_reused").value() -
                      reused0,
                  static_cast<std::uint64_t>(std::min(budget, 4)));
    }
}

TEST(GraphWhatIf, RepairPolicyWhatIfExecutesTheDegradeCone)
{
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    pipeline::runPipeline(p);

    // Repair runs inside fault.degrade.*, so a policy edit re-runs
    // injection too, and every op downstream of the degraded training
    // and test populations.  The oblivious baseline and the week
    // injections read neither.
    auto expected = allOps(p);
    expected.erase("place.oblivious");
    for (const auto h : p.weekInjectOps)
        expected.erase(p.graph.name(h));
    EXPECT_TRUE(expected.count("fault.degrade.training"));
    EXPECT_TRUE(expected.count("fault.degrade.test"));
    const auto overlay = pipeline::parseWhatIf(p, "repair-policy=hold_last");
    EXPECT_EQ(executedOps(p, overlay), expected);
}

TEST(GraphWhatIf, ContentEqualTrainingOverlayExecutesZeroOps)
{
    // The 0%-loss control of bench/ablation_faults: shadowing the
    // training input with an equal copy changes no signature.
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    pipeline::runPipeline(p);

    auto copy =
        p.graph.eval(p.trainingIn).as<std::vector<trace::TimeSeries>>();
    const auto fp = core::fingerprintTraces(copy);
    const auto overlay = graph::Overlay().set(
        p.trainingIn, graph::Value::of(std::move(copy), fp));
    EXPECT_TRUE(executedOps(p, overlay).empty());
}

TEST(GraphWhatIf, OutOfRangeValuesFailBeforeAnyOpRuns)
{
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    // Well-formed numbers the engines reject: parsing must fail on them
    // instead of the what-if run failing after the base report.
    for (const char *bad : {"max-swaps=-5", "top-services=0",
                            "clusters-per-child=0", "remap-threshold=0.5",
                            "replace-threshold=0.001"})
        EXPECT_THROW(pipeline::parseWhatIf(p, bad), util::FatalError)
            << bad;
    EXPECT_EQ(p.graph.totalEvals(), 0u);
}

TEST(GraphWhatIf, MutatedSpecIsAcceptedOrRefusedCleanly)
{
    pipeline::PipelineSpec spec;
    spec.dc = goldenSpec();
    auto p = pipeline::buildPipeline(spec);
    // Seed: one valid item per key, each mutated as a line and the
    // lines joined back with commas.
    const std::vector<std::string> seed = {
        "max-swaps=8",          "placement-seed=9",
        "top-services=3",       "clusters-per-child=2",
        "repair-policy=hold_last", "fault-plan=7:mild",
        "monitor-level=SB",     "remap-threshold=0.05",
        "replace-threshold=0.2"};

    std::mt19937_64 rng(20261021);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const std::vector<std::string> numberEdits = {
        "-", "+", ".", "e", "e999", "x", "nan", "0x", ":",
        "99999999999999999999"};
    const char *keys[] = {"max-swaps",     "placement-seed",
                          "top-services",  "clusters-per-child",
                          "repair-policy", "fault-plan",
                          "monitor-level", "remap-threshold",
                          "replace-threshold", "bogus-key",
                          ""};
    const char *values[] = {"0",     "-1",       "0.5",   "score",
                            "none",  "interpolate", "DC", "rack",
                            "7",     "7:bogus",  "",      "1e308"};
    // Pair any key with any value.
    const auto editItem = [&](std::vector<std::string> &,
                              std::string &line) {
        const std::string key = keys[pick(std::size(keys))];
        line = key + "=" + values[pick(std::size(values))];
    };

    std::size_t accepted = 0;
    std::size_t refused = 0;
    for (int iter = 0; iter < 1000; ++iter) {
        std::string text =
            fuzz::mutateLines(seed, pick, numberEdits, editItem);
        std::replace(text.begin(), text.end(), '\n', ',');
        try {
            pipeline::parseWhatIf(p, text);
            ++accepted;
        } catch (const util::FatalError &e) {
            ++refused;
            const std::string what = e.what();
            EXPECT_NE(what.find("--what-if: "), std::string::npos) << what;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "unexpected exception: " << e.what() << "\n"
                          << text;
        }
    }
    // The mutations must exercise both outcomes, and parsing never
    // runs an op.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(refused, 0u);
    EXPECT_EQ(p.graph.totalEvals(), 0u);
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
    spec.dc.weeks = 2; // the fewest buildPipeline accepts
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

        // The training cone re-executed, down to the week measurement:
        // op outputs are named by signature, so a renamed refined
        // assignment re-runs its consumers even when its content is
        // unchanged.
        EXPECT_GT(warm_p.graph.evalCount(warm_p.scoreOp), score_evals);
        EXPECT_GT(warm_p.graph.evalCount(warm_p.weekMeasureOps[0]),
                  week_evals);

        // Now stack 1-3 random overlays on top of the edited state and
        // check warm-vs-cold bit identity again.
        graph::Overlay stack;
        const int n = 1 + static_cast<int>(rng() % 3);
        for (int k = 0; k < n; ++k) {
            std::string what_if;
            switch (rng() % 4) {
              case 0:
                what_if = "max-swaps=" + std::to_string(rng() % 8);
                break;
              case 1:
                what_if = "placement-seed=" + std::to_string(rng() % 1000);
                break;
              case 2:
                what_if = "top-services=" + std::to_string(1 + rng() % 4);
                break;
              default:
                what_if = "monitor-level=SB";
                break;
            }
            stack = stack.merged(pipeline::parseWhatIf(warm_p, what_if));
        }
        const auto degrade_evals =
            warm_p.graph.evalCount(warm_p.degradeTestOp);
        const auto warm_wi = pipeline::runPipeline(warm_p, stack);
        const auto cold_wi = pipeline::runPipeline(cold_p, stack);
        EXPECT_EQ(resultDigest(warm_wi), resultDigest(cold_wi))
            << "round " << round << ": overlay stack diverged";
        // No overlay in the stack shadows the test traces, the plan or
        // the repair policy, so the test-week degrade op is outside
        // every stacked cone.
        EXPECT_EQ(warm_p.graph.evalCount(warm_p.degradeTestOp),
                  degrade_evals)
            << "untouched cone re-executed under an overlay stack";

        // Overlay evaluation must not disturb the base memo: an empty
        // re-run right after is free and unchanged.
        const auto again = pipeline::runPipeline(warm_p);
        EXPECT_EQ(again.opsExecuted, 0u);
        EXPECT_EQ(resultDigest(again), resultDigest(warm));
    }
}

} // namespace

#include "ops.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <utility>

#include "baseline/oblivious.h"
#include "cluster/shape_index.h"
#include "core/asynchrony.h"
#include "core/fingerprints.h"
#include "obs/obs.h"
#include "trace/kernels.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/parse.h"

namespace sosim::pipeline {

namespace {

graph::Value
policyValue(trace::RepairPolicy policy)
{
    return graph::Value::of(
        policy, util::fingerprintString("repair-policy:" +
                                         trace::repairPolicyName(policy)));
}

graph::Value
planValue(const fault::FaultPlan &plan)
{
    return graph::Value::of(plan, plan.fingerprint());
}

/** True when every sample of every row is finite. */
bool
fullyValid(const std::vector<trace::TimeSeries> &traces)
{
    for (const auto &ts : traces)
        if (trace::countValid(trace::TraceView(ts)) != ts.size())
            return false;
    return true;
}

power::Level
levelFromName(const std::string &name, const std::string &tag)
{
    std::string upper = name;
    std::transform(upper.begin(), upper.end(), upper.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    // The DC level is placement-invariant, so the monitor cannot watch it.
    for (const auto level : power::kAllLevels)
        if (level != power::Level::Datacenter &&
            power::levelName(level) == upper)
            return level;
    SOSIM_REQUIRE(false, tag + ": unknown power level '" + name +
                             "' (SUITE|MSB|SB|RPP|RACK)");
}

} // namespace

const power::Assignment &
assignmentOf(const graph::Value &v)
{
    if (v.is<power::Assignment>())
        return v.as<power::Assignment>();
    if (v.is<core::RemapRun>())
        return v.as<core::RemapRun>().assignment;
    SOSIM_REQUIRE(false, "pipeline: value does not carry an assignment");
}

Pipeline
buildPipeline(const PipelineSpec &spec)
{
    SOSIM_SPAN("pipeline.build");
    SOSIM_REQUIRE(spec.dc.weeks >= 2,
                  "buildPipeline: need at least two weeks (the last one "
                  "is held out for evaluation)");
    Pipeline p;
    p.spec = spec;

    auto dc = workload::generate(spec.dc);
    p.instanceCount = dc.instanceCount();
    auto training = dc.trainingTraces();
    SOSIM_REQUIRE(!training.empty(), "buildPipeline: no instances");
    p.shape = {dc.instanceCount(), training.front().size()};
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);

    // An unfaulted pipeline still carries the degrade and inject nodes,
    // fed by an empty "none" plan: it schedules no trace fault, so both
    // pass their populations through uncopied and the graph shape does
    // not depend on the fault switch.  The empty plan is built for the
    // wildcard shape {0, 0}, which composes with a population of any
    // shape — input edits and what-if overlays may resample or resize
    // the trace populations freely.
    const fault::FaultPlan plan =
        spec.faulted
            ? fault::FaultPlan::build(spec.faultSeed,
                                      fault::faultProfile(spec.faultProfile),
                                      p.shape)
            : fault::FaultPlan::build(0, fault::faultProfile("none"),
                                      fault::TraceShape{});

    p.tree = std::make_shared<const power::PowerTree>(spec.dc.topology);

    // The generated weeks are adopted, not copied, and each is boxed
    // once: the "test" input is the last week's Value, one payload under
    // two names.  The input populations (training and every week) are
    // fingerprinted side by side, each into its own slot.
    auto weeks = std::move(dc).takeWeeks();
    std::vector<const std::vector<trace::TimeSeries> *> populations = {
        &training};
    for (const auto &week : weeks)
        populations.push_back(&week);
    std::vector<std::uint64_t> population_fps(populations.size());
    util::parallelFor(populations.size(), [&](std::size_t k) {
        population_fps[k] = core::fingerprintTraces(*populations[k]);
    });
    std::vector<graph::Value> week_values;
    week_values.reserve(weeks.size());
    for (std::size_t w = 0; w < weeks.size(); ++w)
        week_values.push_back(
            graph::Value::of(std::move(weeks[w]), population_fps[1 + w]));

    auto &g = p.graph;
    {
        p.trainingIn = g.input(
            "training",
            graph::Value::of(std::move(training), population_fps[0]));
        p.testIn = g.input("test", week_values.back());
        const auto services_fp = core::fingerprintServices(service_of);
        p.serviceOfIn = g.input(
            "service_of",
            graph::Value::of(std::move(service_of), services_fp));
    }
    p.planIn = g.input("fault.plan", planValue(plan));
    p.repairPolicyIn =
        g.input("repair.policy", policyValue(spec.repairPolicy));
    p.embedConfigIn = g.input(
        "placement.embed_config",
        graph::Value::of(spec.placement,
                         core::fingerprintEmbedConfig(spec.placement)));
    p.distributeConfigIn = g.input(
        "placement.distribute_config",
        graph::Value::of(
            spec.placement,
            core::fingerprintDistributeConfig(spec.placement)));
    p.remapConfigIn = g.input(
        "remap.config",
        graph::Value::of(spec.remap,
                         core::fingerprintRemapConfig(spec.remap)));
    p.remapBaseConfigIn = g.input(
        "remap.base_config",
        graph::Value::of(spec.remap,
                         core::fingerprintRemapConfig(spec.remap)));
    p.monitorConfigIn = g.input(
        "monitor.config",
        graph::Value::of(
            spec.monitor,
            core::fingerprintMonitorMeasureConfig(spec.monitor)));
    for (std::size_t w = 0; w < week_values.size(); ++w)
        p.weekIns.push_back(
            g.input("week." + std::to_string(w), std::move(week_values[w])));

    using Ins = std::vector<graph::Value>;
    // Stage bodies that read the power tree share it with the Pipeline
    // and bake its fingerprint into their config fingerprint.
    const auto tree = p.tree;
    const auto tree_fp = core::fingerprintTree(*tree);

    // With no trace fault scheduled, a week inject op passes its input
    // through, and so does a degrade op whose rows are all valid.
    // Otherwise injection and repair share one copy, each degrading it
    // in place: the legacy call chain, in one op.
    const auto inject_body = [](const Ins &ins) {
        const auto &week = ins[0].as<std::vector<trace::TimeSeries>>();
        const auto &plan = ins[1].as<fault::FaultPlan>();
        if (!fault::checkTraceFaults(week, plan))
            return ins[0];
        auto traces = week;
        fault::injectTraceFaults(traces, plan);
        return graph::Value::of(std::move(traces));
    };
    const auto degrade_body = [](const Ins &ins) {
        const auto &population = ins[0].as<std::vector<trace::TimeSeries>>();
        const auto &plan = ins[1].as<fault::FaultPlan>();
        DegradedTraces out;
        if (!fault::checkTraceFaults(population, plan) &&
            fullyValid(population)) {
            out.traces = ins[0].share<std::vector<trace::TimeSeries>>();
            out.repair.validBefore.assign(population.size(), 1.0);
            return graph::Value::of(std::move(out));
        }
        auto traces = population;
        out.faults = fault::injectTraceFaults(traces, plan);
        out.repair =
            trace::repairAll(traces, ins[2].as<trace::RepairPolicy>());
        out.traces = std::make_shared<const std::vector<trace::TimeSeries>>(
            std::move(traces));
        return graph::Value::of(std::move(out));
    };

    p.degradeTrainingOp =
        g.op("fault.degrade.training",
             {p.trainingIn, p.planIn, p.repairPolicyIn}, 0, degrade_body);
    p.degradeTestOp =
        g.op("fault.degrade.test", {p.testIn, p.planIn, p.repairPolicyIn},
             0, degrade_body);
    p.statsOp = g.op(
        "trace.stats.training", {p.degradeTrainingOp}, 0,
        [](const Ins &ins) {
            PopulationStats out;
            for (const auto &ts : *ins[0].as<DegradedTraces>().traces) {
                const auto s = trace::computeStats(trace::TraceView(ts));
                out.perTrace.push_back(s);
                out.totalMeanPower += s.mean;
                out.peakOfPeaks = std::max(out.peakOfPeaks, s.peak);
            }
            return graph::Value::of(std::move(out));
        });
    p.scoreOp = g.op(
        "score.asynchrony.training", {p.degradeTrainingOp}, 0,
        [](const Ins &ins) {
            return graph::Value::of(core::asynchronyScore(
                *ins[0].as<DegradedTraces>().traces));
        });
    p.obliviousOp = g.op(
        "place.oblivious", {p.serviceOfIn}, tree_fp, [tree](const Ins &ins) {
            return graph::Value::of(baseline::obliviousPlacement(
                *tree, ins[0].as<std::vector<std::size_t>>()));
        });
    // One shape-embedding build for the whole pipeline: remap pruning
    // and every week's drift diagnostic read this node's cached output,
    // so the population is shape-embedded once however many what-ifs
    // re-enter the graph.
    p.shapeIndexOp = g.op(
        "cluster.shape_index", {p.degradeTrainingOp}, 0,
        [](const Ins &ins) {
            const auto &population =
                *ins[0].as<DegradedTraces>().traces;
            std::vector<const double *> rows;
            rows.reserve(population.size());
            for (const auto &ts : population)
                rows.push_back(ts.samples().data());
            const std::size_t samples =
                population.empty() ? 0 : population.front().size();
            return graph::Value::of(
                cluster::ShapeIndex::build(rows, samples));
        });
    p.embedOp = g.op(
        "place.embed",
        {p.degradeTrainingOp, p.serviceOfIn, p.embedConfigIn}, 0,
        [](const Ins &ins) {
            return graph::Value::of(core::placementEmbedding(
                ins[2].as<core::PlacementConfig>(),
                *ins[0].as<DegradedTraces>().traces,
                ins[1].as<std::vector<std::size_t>>()));
        });
    p.placeOp = g.op(
        "place.distribute", {p.embedOp, p.distributeConfigIn}, tree_fp,
        [tree](const Ins &ins) {
            const auto &cfg = ins[1].as<core::PlacementConfig>();
            return graph::Value::of(
                core::PlacementEngine(*tree, cfg).placeWithEmbedding(
                    ins[0].as<std::vector<cluster::Point>>()));
        });
    // Pre-repair validity gates swap candidacy exactly as the CLI's
    // faulted path does; an all-valid population gates nothing, so the
    // clean path is bit-identical to refining without a validity vector.
    // The shared index feeds the kCluster pruner so it skips its own
    // re-embed.  remap.base runs the spec's own budget and keeps the
    // state its search stopped in; no what-if shadows its config, so a
    // max-swaps what-if finds it in the base pin and remap.refine goes
    // on from it (Remapper::extend: pass-through, prefix or resume).
    p.remapBaseOp = g.op(
        "remap.base",
        {p.placeOp, p.degradeTrainingOp, p.remapBaseConfigIn,
         p.shapeIndexOp},
        tree_fp, [tree](const Ins &ins) {
            const auto &training = ins[1].as<DegradedTraces>();
            return graph::Value::of(
                core::Remapper(*tree, ins[2].as<core::RemapConfig>())
                    .search(ins[0].as<power::Assignment>(), *training.traces,
                            &training.repair.validBefore,
                            &ins[3].as<cluster::ShapeIndex>()));
        });
    p.remapOp = g.op(
        "remap.refine",
        {p.placeOp, p.degradeTrainingOp, p.remapConfigIn, p.shapeIndexOp,
         p.remapBaseOp},
        tree_fp, [tree](const Ins &ins) {
            const auto &training = ins[1].as<DegradedTraces>();
            return graph::Value::of(
                core::Remapper(*tree, ins[2].as<core::RemapConfig>())
                    .extend(ins[4].as<core::RemapRun>(),
                            ins[0].as<power::Assignment>(), *training.traces,
                            &training.repair.validBefore,
                            &ins[3].as<cluster::ShapeIndex>()));
        });
    // Breaker trips black out racks under the refined placement.  They
    // degrade a scratch copy of the test week that lives only as long
    // as the comparison reading it; a plan without trips compares on
    // the degraded test week itself, with an empty trip report.
    p.compareOp = g.op(
        "compare.headroom",
        {p.degradeTestOp, p.obliviousOp, p.remapOp, p.planIn}, tree_fp,
        [tree](const Ins &ins) {
            const auto &degraded = *ins[0].as<DegradedTraces>().traces;
            const auto &oblivious = ins[1].as<power::Assignment>();
            const auto &optimized = ins[2].as<core::RemapRun>().assignment;
            const auto &plan = ins[3].as<fault::FaultPlan>();
            HeadroomResult out;
            if (!fault::checkBreakerTrips(degraded, optimized, plan)) {
                out.comparison = core::comparePlacements(
                    *tree, degraded, oblivious, optimized);
                return graph::Value::of(std::move(out));
            }
            auto test = degraded;
            out.trips =
                fault::injectBreakerTrips(test, *tree, optimized, plan);
            out.comparison =
                core::comparePlacements(*tree, test, oblivious, optimized);
            return graph::Value::of(std::move(out));
        });
    // measureWeek is the pure half of one week's observation; runPipeline
    // makes the stateful threshold judgment.  The training index enables
    // the shape-drift diagnostic, which annotates but never steers the
    // recommended action.
    const auto measure_body = [tree](const Ins &ins) {
        return graph::Value::of(core::measureWeek(
            *tree, ins[2].as<core::MonitorConfig>(),
            ins[0].as<std::vector<trace::TimeSeries>>(),
            ins[1].as<core::RemapRun>().assignment,
            &ins[3].as<cluster::ShapeIndex>()));
    };
    for (std::size_t w = 0; w < p.weekIns.size(); ++w) {
        const auto week = std::to_string(w);
        p.weekInjectOps.push_back(g.op("fault.inject.week." + week,
                                       {p.weekIns[w], p.planIn}, 0,
                                       inject_body));
        p.weekMeasureOps.push_back(
            g.op("monitor.measure.week." + week,
                 {p.weekInjectOps[w], p.remapOp, p.monitorConfigIn,
                  p.shapeIndexOp},
                 tree_fp, measure_body));
    }
    return p;
}

PipelineResult
runPipeline(Pipeline &p, const graph::Overlay &overlay)
{
    SOSIM_SPAN("pipeline.run");
    const auto hits0 = p.graph.cacheHits();
    const auto misses0 = p.graph.cacheMisses();
    // An empty overlay evaluates the base path and refreshes the base
    // pins; a non-empty one leaves them alone.
    const auto ev = [&](graph::Handle h) { return p.graph.eval(h, overlay); };

    PipelineResult r;
    r.plan = ev(p.planIn).as<fault::FaultPlan>();
    {
        const auto degraded = ev(p.degradeTrainingOp);
        const auto &training = degraded.as<DegradedTraces>();
        r.trainingFaults = training.faults;
        r.trainingRepair = training.repair;
    }
    r.oblivious = ev(p.obliviousOp).as<power::Assignment>();
    {
        const auto remapped = ev(p.remapOp);
        const auto &result = remapped.as<core::RemapRun>();
        r.optimized = result.assignment;
        r.swaps = result.swaps;
    }
    {
        const auto compared = ev(p.compareOp);
        const auto &headroom = compared.as<HeadroomResult>();
        r.tripFaults = headroom.trips;
        r.comparison = headroom.comparison;
    }
    r.trainingStats = ev(p.statsOp).as<PopulationStats>();
    r.trainingScore = ev(p.scoreOp).as<double>();

    // The stateful half of monitoring: thresholds and the baseline
    // window live outside the graph, so they read the overlaid config
    // directly and measurements stay cacheable across threshold sweeps.
    const auto monitor_cfg =
        ev(p.monitorConfigIn).as<core::MonitorConfig>();
    core::FragmentationMonitor monitor(*p.tree, monitor_cfg);
    for (const auto measure : p.weekMeasureOps) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto value = ev(measure);
        const auto &m = value.as<core::MonitorMeasurement>();
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        r.weekly.push_back(monitor.ingest(m, seconds));
    }

    r.cacheHits = p.graph.cacheHits() - hits0;
    r.opsExecuted = p.graph.cacheMisses() - misses0;
    return r;
}

graph::Overlay
parseWhatIf(const Pipeline &p, const std::string &text)
{
    // Accumulate edits into config copies first, then shadow each
    // touched input exactly once — two keys landing on the same config
    // (e.g. placement-seed + clusters-per-child, or both thresholds)
    // must compose, not clobber each other.
    auto placement = p.spec.placement;
    auto remap = p.spec.remap;
    auto monitor = p.spec.monitor;
    bool embed_changed = false;
    bool distribute_changed = false;
    // The last key that edited each engine's config ("" = untouched).
    std::string placement_key, remap_key, monitor_key;
    graph::Overlay overlay;

    std::size_t pos = 0;
    while (pos < text.size()) {
        auto comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string item = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const auto eq = item.find('=');
        SOSIM_REQUIRE(eq != std::string::npos && eq > 0,
                      "--what-if: expected KEY=VALUE, got '" + item +
                          "'");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        const std::string tag = "--what-if: " + key;
        if (key == "max-swaps") {
            remap.maxSwaps = util::parseNumber<int>(value, tag);
            remap_key = key;
        } else if (key == "placement-seed") {
            placement.seed = util::parseNumber<std::uint64_t>(value, tag);
            distribute_changed = true;
            placement_key = key;
        } else if (key == "top-services") {
            placement.topServices =
                util::parseNumber<std::size_t>(value, tag);
            embed_changed = true;
            placement_key = key;
        } else if (key == "clusters-per-child") {
            placement.clustersPerChild =
                util::parseNumber<std::size_t>(value, tag);
            distribute_changed = true;
            placement_key = key;
        } else if (key == "repair-policy") {
            const auto policy = util::withTag(
                tag, [&] { return trace::repairPolicyFromName(value); });
            overlay.set(p.repairPolicyIn, policyValue(policy));
        } else if (key == "fault-plan") {
            const auto plan_spec = fault::parseFaultPlanSpec(value, tag);
            overlay.set(p.planIn,
                        planValue(fault::FaultPlan::build(
                            plan_spec.seed,
                            fault::faultProfile(plan_spec.profile),
                            p.shape)));
        } else if (key == "monitor-level") {
            monitor.level = levelFromName(value, tag);
            monitor_key = key;
        } else if (key == "remap-threshold") {
            monitor.remapThreshold = util::parseNumber<double>(value, tag);
            monitor_key = key;
        } else if (key == "replace-threshold") {
            monitor.replaceThreshold = util::parseNumber<double>(value, tag);
            monitor_key = key;
        } else {
            SOSIM_REQUIRE(false,
                          "--what-if: unknown key '" + key + "'");
        }
    }
    // The engines' constructors check their configs: run them here so
    // an out-of-range value fails before any op executes, naming the
    // last key that edited the config.
    util::withTag("--what-if: " + placement_key,
                  [&] { core::PlacementEngine(*p.tree, placement); });
    util::withTag("--what-if: " + remap_key,
                  [&] { core::Remapper(*p.tree, remap); });
    util::withTag("--what-if: " + monitor_key,
                  [&] { core::FragmentationMonitor(*p.tree, monitor); });

    if (embed_changed)
        overlay.set(p.embedConfigIn,
                    graph::Value::of(
                        placement,
                        core::fingerprintEmbedConfig(placement)));
    if (distribute_changed)
        overlay.set(p.distributeConfigIn,
                    graph::Value::of(
                        placement,
                        core::fingerprintDistributeConfig(placement)));
    if (!remap_key.empty())
        overlay.set(p.remapConfigIn,
                    graph::Value::of(
                        remap, core::fingerprintRemapConfig(remap)));
    if (!monitor_key.empty())
        overlay.set(
            p.monitorConfigIn,
            graph::Value::of(
                monitor,
                core::fingerprintMonitorMeasureConfig(monitor)));
    return overlay;
}

graph::Overlay
whatIfMaxSwaps(const Pipeline &p, int max_swaps)
{
    return parseWhatIf(p, "max-swaps=" + std::to_string(max_swaps));
}

graph::Overlay
whatIfFaultPlan(const Pipeline &p, std::uint64_t seed,
                const std::string &profile)
{
    return parseWhatIf(p, "fault-plan=" + std::to_string(seed) + ":" +
                              profile);
}

} // namespace sosim::pipeline

/**
 * @file
 * perfbench: the end-to-end benchmark of the sosim library.
 *
 *   perfbench --workload dc3|fleet-10240 --seed N --seconds S --trace 0|1
 *             [--out RESULT.json] [--spans SPANS.json]
 *
 * A workload is one generated datacenter; every iteration sets it up and
 * then runs the three things a capacity planner does with it, through
 * the library's public entry points:
 *
 *   report  graph::buildPipeline, a cold runPipeline, then two warm
 *           what-ifs (a harsh fault plan, and max-swaps=32)
 *   place   PlacementEngine::place (two k-means seeds), then
 *           Remapper::refine from the oblivious start (cluster pruning,
 *           keep 0.25, 16 swaps), three times
 *   serve   serve::Service fed every generated week back to back, one
 *           tick at a time, by one closed-loop feeder thread
 *
 * --trace 0 times those calls and prints the end-to-end metrics.
 * --trace 1 replays each phase stage by stage — the same library calls
 * the pipeline's ops make, each wrapped in a span named after its layer —
 * once with the tracer off and once on, and prints the per-layer
 * metrics plus the tracing overhead.  Both modes check the outputs; any
 * failed check, rejected sample, shed epoch or thrown error is a failed
 * operation and makes the exit code non-zero.
 *
 * The seed drives all inputs: it draws kDatasets preset seeds, the first
 * being the seed itself, and each dataset's fault-plan seed is its preset
 * seed ^ 2021 (so the default seed 2018 gives fault plan 7).  The last
 * line of stdout is the result as one JSON object.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/oblivious.h"
#include "cluster/kmeans.h"
#include "cluster/shape_index.h"
#include "core/asynchrony.h"
#include "core/fingerprints.h"
#include "core/headroom.h"
#include "core/monitor.h"
#include "core/placement.h"
#include "core/remap.h"
#include "core/service_traces.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "graph/ops.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "trace/kernels.h"
#include "trace/repair.h"
#include "util/parallel.h"
#include "workload/dc_presets.h"
#include "workload/generator.h"

#include "host.h"
#include "tracer.h"

namespace {

using namespace sosim;
using Clock = std::chrono::steady_clock;
using perfbench::Tracer;
using Scope = perfbench::Tracer::Scope;

/** Library pool width used by every workload (clamped to nproc). */
constexpr std::size_t kPoolWidth = 2;
/** XOR-ed into a preset seed to give its fault-plan seed (2018 -> 7). */
constexpr std::uint64_t kFaultSeedMask = 2021;
/**
 * Datasets per run: iteration i uses dataset i % kDatasets, so a run's
 * medians cover several inputs drawn from its seed instead of resting on
 * one draw, and each dataset still repeats for the determinism checks.
 */
constexpr std::uint64_t kDatasets = 5;
/** The report's second what-if. */
constexpr int kWhatIfMaxSwaps = 32;
/** Refinements per iteration: one is too short to time steadily. */
constexpr int kRemapRepeats = 3;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t
bitsOf(double d)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &d, sizeof b);
    return b;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

struct Workload {
    std::string name;
    std::uint64_t seed = 0;
    std::uint64_t faultSeed = 0;
    /** The report pipeline, including the datacenter spec. */
    pipeline::PipelineSpec report;
    /** Refinement run by the place phase. */
    core::RemapConfig placeRemap;
    serve::ServeConfig serve;
};

/** Preset seed of dataset k of a run: the run seed itself for k = 0,
 *  then a splitmix64 step away from it. */
std::uint64_t
datasetSeed(std::uint64_t seed, std::uint64_t k)
{
    if (k == 0)
        return seed;
    std::uint64_t z = seed + k * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31U)) % 1000000;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    w.name = name;
    w.seed = seed;
    w.faultSeed = seed ^ kFaultSeedMask;
    workload::PresetOptions opt;
    opt.seed = seed;
    // Pruned, sharded refinement: the configuration fleet-sized remaps
    // need; the place phase uses it on both workloads.
    w.placeRemap.maxSwaps = 16;
    w.placeRemap.prune = core::PruneMode::kCluster;
    w.placeRemap.pruneKeepFraction = 0.25;
    // `sosim report` defaults.
    w.report.remap.maxSwaps = 16;
    if (name == "dc3") {
        // The paper-scale preset: 1536 instances, 5-minute samples,
        // three weeks.
        opt.intervalMinutes = 5;
        opt.weeks = 3;
        w.report.dc = workload::buildDc3Spec(opt);
    } else if (name == "fleet-10240") {
        // Fleet scale: 10240 instances over sixteen services, 30-minute
        // samples, two weeks.  An exhaustive swap scan does not scale
        // here, so the report's refinement is pruned too.
        opt.intervalMinutes = 30;
        opt.weeks = 2;
        w.report.dc = workload::buildFleetSpec(10240, opt);
        w.report.remap = w.placeRemap;
    } else {
        return false;
    }
    // `sosim serve` defaults: 48-tick window, 24-tick epochs, no
    // checkpoint directory.
    w.serve.window = 48;
    w.serve.epochTicks = 24;
    w.serve.remap.maxSwaps = 16;
    return true;
}

// ---------------------------------------------------------------------
// Output digests (compared across iterations and against replays).
// ---------------------------------------------------------------------

std::uint64_t
digestOutcome(const power::Assignment &optimized,
              const std::vector<core::SwapRecord> &swaps,
              const core::HeadroomReport &comparison, double score,
              double total_mean_power, double peak_of_peaks,
              const std::vector<core::MonitorObservation> &weekly)
{
    std::uint64_t h = core::fingerprintAssignment(optimized);
    h = graph::hashCombine(h, swaps.size());
    for (const auto &s : swaps) {
        h = graph::hashCombine(h, s.instanceA);
        h = graph::hashCombine(h, s.instanceB);
        h = graph::hashCombine(h, s.rackA);
        h = graph::hashCombine(h, s.rackB);
    }
    for (const auto &lc : comparison.levels) {
        h = graph::hashCombine(h, static_cast<std::uint64_t>(lc.level));
        h = graph::hashCombine(h, bitsOf(lc.baselineSumPeaks));
        h = graph::hashCombine(h, bitsOf(lc.optimizedSumPeaks));
    }
    h = graph::hashCombine(h, bitsOf(score));
    h = graph::hashCombine(h, bitsOf(total_mean_power));
    h = graph::hashCombine(h, bitsOf(peak_of_peaks));
    for (const auto &o : weekly) {
        h = graph::hashCombine(h, bitsOf(o.fragmentationRatio));
        h = graph::hashCombine(h, static_cast<std::uint64_t>(o.action));
    }
    return h;
}

std::uint64_t
digestResult(const pipeline::PipelineResult &r)
{
    return digestOutcome(r.optimized, r.swaps, r.comparison,
                         r.trainingScore, r.trainingStats.totalMeanPower,
                         r.trainingStats.peakOfPeaks, r.weekly);
}

// ---------------------------------------------------------------------
// Bookkeeping: operations, checks, metrics.
// ---------------------------------------------------------------------

struct Checks {
    /** Dataset of the current iteration; digests are kept per dataset. */
    std::string dataset;
    std::uint64_t attempted = 0;
    std::uint64_t failedOps = 0;
    std::vector<std::string> failures;
    std::map<std::string, std::string> fingerprints;

    /** One checked operation. */
    void expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failedOps;
            failures.push_back(what);
        }
    }

    /** Digest `name` must be identical in every iteration. */
    void stable(const std::string &name, std::uint64_t digest)
    {
        const std::string key = name + "@" + dataset;
        const auto it = fingerprints.find(key);
        if (it == fingerprints.end()) {
            fingerprints[key] = hex(digest);
            return;
        }
        expect(it->second == hex(digest),
               key + " differs across iterations");
    }
};

struct Metric {
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
};

using Samples = std::map<std::string, std::vector<double>>;

// ---------------------------------------------------------------------
// Set-up and the untraced phases (public entry points only).
// ---------------------------------------------------------------------

/** A built workload: the report pipeline plus views of its inputs. */
struct Setup {
    pipeline::Pipeline p;
    const std::vector<trace::TimeSeries> *training = nullptr;
    const std::vector<std::size_t> *serviceOf = nullptr;
    std::vector<const std::vector<trace::TimeSeries> *> weeks;
    std::unique_ptr<serve::Service> service;
};

std::unique_ptr<serve::Service>
makeService(const Workload &w, const power::PowerTree &tree,
            const std::vector<std::size_t> &service_of)
{
    return std::make_unique<serve::Service>(
        tree, service_of, baseline::obliviousPlacement(tree, service_of),
        w.report.dc.intervalMinutes, w.serve);
}

/** Generation, pipeline build and service build: the set-up time. */
std::unique_ptr<Setup>
setUp(const Workload &w)
{
    auto s = std::make_unique<Setup>();
    s->p = pipeline::buildPipeline(w.report);
    auto &g = s->p.graph;
    s->training =
        &g.eval(s->p.trainingIn).as<std::vector<trace::TimeSeries>>();
    s->serviceOf = &g.eval(s->p.serviceOfIn).as<std::vector<std::size_t>>();
    for (const auto week : s->p.weekIns)
        s->weeks.push_back(
            &g.eval(week).as<std::vector<trace::TimeSeries>>());
    s->service = makeService(w, *s->p.tree, *s->serviceOf);
    return s;
}

struct ReportRun {
    pipeline::PipelineResult base, faulted, remap;
    double baseMs = 0, faultedMs = 0, remapMs = 0;
};

ReportRun
runReport(const Workload &w, pipeline::Pipeline &p)
{
    ReportRun r;
    auto t0 = Clock::now();
    r.base = pipeline::runPipeline(p);
    r.baseMs = msSince(t0);
    t0 = Clock::now();
    r.faulted = pipeline::runPipeline(
        p, pipeline::whatIfFaultPlan(p, w.faultSeed, "harsh"));
    r.faultedMs = msSince(t0);
    t0 = Clock::now();
    r.remap =
        pipeline::runPipeline(p, pipeline::whatIfMaxSwaps(p, kWhatIfMaxSwaps));
    r.remapMs = msSince(t0);
    return r;
}

struct PlaceRun {
    /** Placement with the configured seed, and with a seed that changes
     *  every iteration. */
    power::Assignment placed, reseeded, refined;
    /** Both placements: their cost depends on the k-means draw as much
     *  as on the data, so one seed alone would time a single draw. */
    std::vector<double> placeMs;
    /** One entry per refinement; every refinement must agree. */
    std::vector<double> remapMs;
    bool refinementsAgree = true;
};

PlaceRun
runPlace(const Workload &w, std::size_t it, const power::PowerTree &tree,
         const std::vector<trace::TimeSeries> &training,
         const std::vector<std::size_t> &service_of)
{
    PlaceRun r;
    auto cfg = w.report.placement;
    auto t0 = Clock::now();
    r.placed = core::PlacementEngine(tree, cfg).place(training, service_of);
    r.placeMs.push_back(msSince(t0));
    cfg.seed += 1 + it;
    t0 = Clock::now();
    r.reseeded = core::PlacementEngine(tree, cfg).place(training, service_of);
    r.placeMs.push_back(msSince(t0));
    const auto start = baseline::obliviousPlacement(tree, service_of);
    for (int k = 0; k < kRemapRepeats; ++k) {
        auto refined = start;
        t0 = Clock::now();
        core::Remapper(tree, w.placeRemap).refine(refined, training);
        r.remapMs.push_back(msSince(t0));
        r.refinementsAgree =
            r.refinementsAgree && (k == 0 || refined == r.refined);
        r.refined = std::move(refined);
    }
    return r;
}

struct ServeRun {
    /** Latency of every epoch that only measured and judged (took no
     *  action), except the loop's first epoch, which pays one-time
     *  allocations a long-running service pays once.  Epochs that remap
     *  or re-place are counted apart. */
    std::vector<double> judgeEpochMs;
    std::uint64_t ticks = 0;
    std::uint64_t accepted = 0, rejected = 0, shed = 0, digest = 0;
    std::size_t epochs = 0, remaps = 0, replaces = 0;
    double wallMs = 0;
};

/**
 * The closed-loop feeder: advance the clock, ingest the tick's sample of
 * every instance, process the epochs that became ready — tick after tick
 * over every week, back to back, as fast as the service allows.
 */
ServeRun
runServe(Tracer &t, serve::Service &svc,
         const std::vector<const std::vector<trace::TimeSeries> *> &weeks)
{
    ServeRun r;
    const std::size_t n = svc.ring().instances();
    const auto record = [&r](const std::vector<serve::EpochResult> &done,
                             double ms) {
        for (const auto &e : done) {
            if (r.epochs++ > 0 &&
                e.observation.action == core::MonitorAction::None)
                r.judgeEpochMs.push_back(ms /
                                         static_cast<double>(done.size()));
            if (e.observation.action == core::MonitorAction::Remap)
                ++r.remaps;
            if (e.replaced)
                ++r.replaces;
        }
    };
    const auto t_start = Clock::now();
    for (const auto *week : weeks) {
        const std::size_t samples = week->front().size();
        for (std::size_t k = 0; k < samples; ++k, ++r.ticks) {
            {
                Scope s(t, "serve.advance");
                svc.advanceTo(r.ticks);
            }
            {
                Scope s(t, "serve.ingest");
                for (std::size_t i = 0; i < n; ++i)
                    svc.ingest({r.ticks, i, (*week)[i][k]});
            }
            Scope s(t, "serve.epoch");
            const auto t0 = Clock::now();
            const auto done = svc.processReadyEpochs();
            if (!done.empty())
                record(done, msSince(t0));
        }
    }
    {
        Scope s(t, "serve.epoch");
        const auto t0 = Clock::now();
        const auto done = svc.processReadyEpochs();
        if (!done.empty())
            record(done, msSince(t0));
    }
    r.wallMs = msSince(t_start);
    r.accepted = svc.ring().acceptedCount();
    r.rejected = svc.ring().rejectedTotal();
    r.shed = svc.shedCount();
    r.digest = svc.digest();
    return r;
}

// ---------------------------------------------------------------------
// The stage-by-stage replay (traced run).  Each block is the body of
// the corresponding pipeline op, in the order runPipeline evaluates
// them, wrapped in a span named after its layer.
// ---------------------------------------------------------------------

struct ReplayInputs {
    std::vector<trace::TimeSeries> training, test;
    std::vector<std::vector<trace::TimeSeries>> weeks;
    std::vector<std::size_t> serviceOf;
};

ReplayInputs
replayGenerate(Tracer &t, const workload::DatacenterSpec &spec)
{
    Scope s(t, "workload.generate");
    const auto dc = workload::generate(spec);
    ReplayInputs in;
    in.training = dc.trainingTraces();
    in.test = dc.testTraces();
    for (int w = 0; w < spec.weeks; ++w) {
        std::vector<trace::TimeSeries> week;
        week.reserve(dc.instanceCount());
        for (std::size_t i = 0; i < dc.instanceCount(); ++i)
            week.push_back(dc.weekTrace(i, w));
        in.weeks.push_back(std::move(week));
    }
    in.serviceOf.resize(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        in.serviceOf[i] = dc.serviceOf(i);
    return in;
}

struct ReportReplay {
    trace::RepairedTraces training, test;
    std::vector<fault::InjectedTraces> weeks;
    cluster::ShapeIndex index;
    power::Assignment oblivious, placed, optimized;
    std::vector<core::SwapRecord> swaps;
    core::HeadroomReport comparison;
    std::vector<core::MonitorObservation> weekly;
    double score = 0.0;
    double totalMeanPower = 0.0;
    double peakOfPeaks = 0.0;
    std::size_t samplesRepaired = 0;
};

/** Breaker trips on the test week, then the headroom comparison. */
core::HeadroomReport
replayCompare(Tracer &t, const power::PowerTree &tree,
              const fault::FaultPlan &plan,
              const std::vector<trace::TimeSeries> &test,
              const power::Assignment &oblivious,
              const power::Assignment &optimized)
{
    fault::InjectedTraces tripped;
    {
        Scope s(t, "fault.trips");
        tripped.traces = test;
        tripped.report =
            fault::injectBreakerTrips(tripped.traces, tree, optimized, plan);
    }
    Scope s(t, "core.compare");
    return core::comparePlacements(tree, tripped.traces, oblivious,
                                   optimized);
}

/** Measure and judge every week, in week order. */
std::vector<core::MonitorObservation>
replayMonitor(Tracer &t, const pipeline::PipelineSpec &spec,
              const power::PowerTree &tree,
              const std::vector<fault::InjectedTraces> &weeks,
              const power::Assignment &optimized,
              const cluster::ShapeIndex &index)
{
    core::FragmentationMonitor monitor(tree, spec.monitor);
    std::vector<core::MonitorObservation> weekly;
    for (const auto &week : weeks) {
        Scope s(t, "core.monitor");
        const auto m = core::measureWeek(tree, spec.monitor, week.traces,
                                         optimized, &index);
        weekly.push_back(monitor.ingest(m));
    }
    return weekly;
}

ReportReplay
replayReport(Tracer &t, const char *phase, const ReplayInputs &in,
             const fault::FaultPlan &plan,
             const pipeline::PipelineSpec &spec,
             const power::PowerTree &tree)
{
    Scope root(t, phase);
    ReportReplay r;
    {
        fault::InjectedTraces injected;
        {
            Scope s(t, "fault.inject");
            injected = fault::injectedCopy(in.training, plan);
        }
        Scope s(t, "trace.repair");
        r.training = trace::repairedCopy(injected.traces, spec.repairPolicy);
    }
    {
        Scope s(t, "baseline.oblivious");
        r.oblivious = baseline::obliviousPlacement(tree, in.serviceOf);
    }
    {
        Scope s(t, "cluster.shape_index");
        std::vector<const double *> rows;
        rows.reserve(r.training.traces.size());
        for (const auto &ts : r.training.traces)
            rows.push_back(ts.samples().data());
        r.index = cluster::ShapeIndex::build(
            rows, r.training.traces.front().size());
    }
    std::vector<cluster::Point> points;
    {
        Scope s(t, "core.embed");
        const auto straces = core::extractServiceTraces(
            r.training.traces, in.serviceOf, spec.placement.topServices);
        points = core::embedPopulation(r.training.traces, straces.straces,
                                       spec.placement.scoring,
                                       spec.placement.kernels);
    }
    {
        Scope s(t, "core.distribute");
        r.placed = core::PlacementEngine(tree, spec.placement)
                       .placeWithEmbedding(points);
    }
    {
        Scope s(t, "core.remap");
        r.optimized = r.placed;
        r.swaps = core::Remapper(tree, spec.remap)
                      .refineInPlace(r.optimized, r.training.traces,
                                     &r.training.summary.validBefore,
                                     &r.index);
    }
    {
        fault::InjectedTraces injected;
        {
            Scope s(t, "fault.inject");
            injected = fault::injectedCopy(in.test, plan);
        }
        Scope s(t, "trace.repair");
        r.test = trace::repairedCopy(injected.traces, spec.repairPolicy);
    }
    r.comparison = replayCompare(t, tree, plan, r.test.traces, r.oblivious,
                                 r.optimized);
    {
        Scope s(t, "trace.stats");
        for (const auto &ts : r.training.traces) {
            const auto st = trace::computeStats(trace::TraceView(ts));
            r.totalMeanPower += st.mean;
            r.peakOfPeaks = std::max(r.peakOfPeaks, st.peak);
        }
    }
    {
        Scope s(t, "core.asynchrony");
        r.score = core::asynchronyScore(r.training.traces);
    }
    for (const auto &week : in.weeks) {
        Scope s(t, "fault.inject");
        r.weeks.push_back(fault::injectedCopy(week, plan));
    }
    r.weekly = replayMonitor(t, spec, tree, r.weeks, r.optimized, r.index);
    r.samplesRepaired = r.training.summary.samplesRepaired +
                        r.test.summary.samplesRepaired;
    return r;
}

std::uint64_t
digestReplay(const ReportReplay &r)
{
    return digestOutcome(r.optimized, r.swaps, r.comparison, r.score,
                         r.totalMeanPower, r.peakOfPeaks, r.weekly);
}

/**
 * The max-swaps what-if: re-refine the clean run's placement, then re-run
 * the cone downstream of the refinement.  Returns the outcome digest and
 * adds the accepted swaps to `swaps`.
 */
std::uint64_t
replayRemapWhatIf(Tracer &t, const ReportReplay &clean,
                  const pipeline::PipelineSpec &spec,
                  const power::PowerTree &tree,
                  const fault::FaultPlan &plan, std::size_t &swaps)
{
    Scope root(t, "phase.report.whatif_remap");
    power::Assignment optimized = clean.placed;
    std::vector<core::SwapRecord> accepted;
    {
        Scope s(t, "core.remap");
        auto cfg = spec.remap;
        cfg.maxSwaps = kWhatIfMaxSwaps;
        accepted = core::Remapper(tree, cfg).refineInPlace(
            optimized, clean.training.traces,
            &clean.training.summary.validBefore, &clean.index);
    }
    swaps += accepted.size();
    const auto comparison = replayCompare(t, tree, plan, clean.test.traces,
                                          clean.oblivious, optimized);
    const auto weekly =
        replayMonitor(t, spec, tree, clean.weeks, optimized, clean.index);
    return digestOutcome(optimized, accepted, comparison, clean.score,
                         clean.totalMeanPower, clean.peakOfPeaks, weekly);
}

struct PlaceReplay {
    std::vector<cluster::Point> points;
    power::Assignment placed, refined;
    std::size_t swaps = 0;
};

PlaceReplay
replayPlace(Tracer &t, const Workload &w, const ReplayInputs &in,
            const power::PowerTree &tree)
{
    Scope root(t, "phase.place");
    PlaceReplay r;
    const auto &cfg = w.report.placement;
    {
        Scope s(t, "core.embed");
        const auto straces = core::extractServiceTraces(
            in.training, in.serviceOf, cfg.topServices);
        r.points = core::embedPopulation(in.training, straces.straces,
                                         cfg.scoring, cfg.kernels);
    }
    {
        Scope s(t, "core.distribute");
        r.placed = core::PlacementEngine(tree, cfg)
                       .placeWithEmbedding(r.points);
    }
    {
        Scope s(t, "baseline.oblivious");
        r.refined = baseline::obliviousPlacement(tree, in.serviceOf);
    }
    Scope s(t, "core.remap");
    r.swaps = core::Remapper(tree, w.placeRemap)
                  .refine(r.refined, in.training)
                  .size();
    return r;
}

/**
 * The datacenter-level split of the balanced partition, run on its own:
 * k-means with placement's DC-level k and seed, then the size balancing.
 * It repeats work core.distribute already did, so it runs outside the
 * timed passes.
 */
void
probeDcSplit(Tracer &t, const std::vector<cluster::Point> &points,
             const power::PowerTree &tree,
             const core::PlacementConfig &cfg)
{
    Scope root(t, "phase.probe");
    const std::size_t q = tree.node(tree.root()).children.size();
    cluster::KMeansConfig kc;
    kc.k = std::min(points.size(), q * cfg.clustersPerChild);
    kc.restarts = cfg.kmeansRestarts;
    kc.maxIterations = cfg.kmeansMaxIterations;
    kc.seed = cfg.seed;
    cluster::KMeansResult result;
    {
        Scope s(t, "cluster.kmeans");
        result = cluster::kMeans(points, kc);
    }
    Scope s(t, "cluster.equalize");
    if (cfg.balanceClusters)
        cluster::equalizeClusterSizes(points, result);
}

// ---------------------------------------------------------------------
// Checks shared by both modes.
// ---------------------------------------------------------------------

/** Every instance on a rack, no rack above the even share. */
void
checkCapacity(Checks &c, const std::string &what,
              const power::PowerTree &tree, const power::Assignment &a)
{
    const std::size_t racks = tree.racks().size();
    const std::size_t cap = (a.size() + racks - 1) / racks;
    bool ok = true;
    std::vector<std::size_t> load(tree.nodeCount(), 0);
    for (const auto rack : a) {
        if (rack >= tree.nodeCount() ||
            tree.node(rack).level != power::Level::Rack) {
            ok = false;
            break;
        }
        ++load[rack];
    }
    for (const auto rack : tree.racks())
        ok = ok && load[rack] <= cap;
    c.expect(ok, what + " exceeds rack capacity");
}

/** A harsh fault plan applied warm must equal a cold faulted build. */
void
checkFaultedCold(Checks &c, const Workload &w,
                 const pipeline::PipelineResult &warm)
{
    auto spec = w.report;
    spec.faulted = true;
    spec.faultSeed = w.faultSeed;
    spec.faultProfile = "harsh";
    auto cold = pipeline::buildPipeline(spec);
    const auto r = pipeline::runPipeline(cold);
    c.expect(digestResult(r) == digestResult(warm),
             "fault-plan what-if differs from a cold faulted build");
}

void
checkServe(Checks &c, const ServeRun &r, std::size_t instances)
{
    c.attempted += r.ticks * instances + r.epochs;
    // On the clean feed every rejected sample and shed epoch is a
    // failed operation.
    c.failedOps += r.rejected + r.shed;
    if (r.rejected + r.shed > 0)
        c.failures.push_back("serve rejected " + std::to_string(r.rejected) +
                             " samples, shed " + std::to_string(r.shed) +
                             " epochs");
    c.expect(r.accepted == r.ticks * instances,
             "serve accepted " + std::to_string(r.accepted) + " of " +
                 std::to_string(r.ticks * instances) + " samples");
}

std::uint64_t
poolBusyNanos()
{
    std::uint64_t total = 0;
    for (const auto &s : obs::registry().snapshot().counters)
        if (s.name.rfind("pool.worker.", 0) == 0 &&
            s.name.size() > 11 &&
            s.name.compare(s.name.size() - 11, 11, ".busy_nanos") == 0)
            total += s.value;
    return total;
}

std::uint64_t
counterValue(const std::string &name)
{
    return obs::registry().counter(name).value();
}

// ---------------------------------------------------------------------
// The two modes.
// ---------------------------------------------------------------------

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** One untraced iteration; appends end-to-end samples. */
void
untracedIteration(const Workload &w, std::size_t it, Checks &c,
                  Samples &s)
{
    const auto t0 = Clock::now();
    auto setup = setUp(w);
    s["setup_s"].push_back(msSince(t0) / 1e3);
    auto &p = setup->p;
    const auto &tree = *p.tree;

    const auto report = runReport(w, p);
    s["report_ms"].push_back(report.baseMs);
    s["whatif_faulted_ms"].push_back(report.faultedMs);
    s["whatif_remap_ms"].push_back(report.remapMs);
    s["extra_servers_pct"].push_back(
        100.0 * report.base.comparison.extraServerFraction());
    c.stable("report", digestResult(report.base));
    c.stable("report.whatif_faulted", digestResult(report.faulted));
    c.stable("report.whatif_remap", digestResult(report.remap));
    if (it == 0)
        checkFaultedCold(c, w, report.faulted);

    const auto place =
        runPlace(w, it, tree, *setup->training, *setup->serviceOf);
    for (const double ms : place.placeMs)
        s["place_ms"].push_back(ms);
    for (const double ms : place.remapMs)
        s["remap_ms"].push_back(ms);
    c.expect(place.refinementsAgree, "repeated refinements disagree");
    c.stable("place", core::fingerprintAssignment(place.placed));
    c.stable("place.remap", core::fingerprintAssignment(place.refined));
    checkCapacity(c, "placement", tree, place.placed);
    checkCapacity(c, "reseeded placement", tree, place.reseeded);
    checkCapacity(c, "refined placement", tree, place.refined);
    c.expect(core::fingerprintAssignment(place.placed) ==
                 core::fingerprintAssignment(
                     pipeline::assignmentOf(p.graph.eval(p.placeOp))),
             "PlacementEngine::place differs from the pipeline's place op");

    Tracer off(false);
    const auto serve = runServe(off, *setup->service, setup->weeks);
    checkServe(c, serve, setup->serviceOf->size());
    c.stable("serve", serve.digest);
    s["stream_msamples_per_s"].push_back(
        static_cast<double>(serve.accepted) / (serve.wallMs * 1e3));
    for (const double ms : serve.judgeEpochMs)
        s["epoch_latency_ms"].push_back(ms);
}

/**
 * What one replay pass leaves behind.  Only digests and counts survive
 * the pass, so both passes of an iteration start from the same heap
 * state (a pass that runs while another's traces are still alive pays
 * fresh page faults the other did not).
 */
struct PassOutcome {
    std::uint64_t clean = 0, faulted = 0, remap = 0;
    power::Assignment placed, refined;
    /** Embedding of the place phase, for the DC-level split probe. */
    std::vector<cluster::Point> points;
    std::size_t swaps = 0, samplesRepaired = 0;
    ServeRun serve;
    double wallMs = 0;
};

PassOutcome
replayPass(Tracer &t, const Workload &w, const power::PowerTree &tree,
           const fault::FaultPlan &none, const fault::FaultPlan &harsh)
{
    PassOutcome o;
    const auto t0 = Clock::now();
    {
        const auto in = replayGenerate(t, w.report.dc);
        {
            const auto clean = replayReport(t, "phase.report.clean", in,
                                            none, w.report, tree);
            o.clean = digestReplay(clean);
            o.swaps += clean.swaps.size();
            o.remap =
                replayRemapWhatIf(t, clean, w.report, tree, none, o.swaps);
        }
        {
            const auto faulted = replayReport(t, "phase.report.faulted", in,
                                              harsh, w.report, tree);
            o.faulted = digestReplay(faulted);
            o.swaps += faulted.swaps.size();
            o.samplesRepaired = faulted.samplesRepaired;
        }
        {
            auto place = replayPlace(t, w, in, tree);
            o.swaps += place.swaps;
            o.placed = std::move(place.placed);
            o.refined = std::move(place.refined);
            o.points = std::move(place.points);
        }
        Scope root(t, "phase.serve");
        auto svc = makeService(w, tree, in.serviceOf);
        std::vector<const std::vector<trace::TimeSeries> *> weeks;
        for (const auto &week : in.weeks)
            weeks.push_back(&week);
        o.serve = runServe(t, *svc, weeks);
    }
    o.wallMs = msSince(t0);
    return o;
}

/** One traced iteration; appends per-layer samples. */
void
tracedIteration(const Workload &w, std::size_t it, Tracer &tracer,
                Checks &c, Samples &s)
{
    auto setup = setUp(w);
    auto &p = setup->p;
    const auto &tree = *p.tree;
    const auto report = runReport(w, p);
    const auto place =
        runPlace(w, it, tree, *setup->training, *setup->serviceOf);
    if (it == 0)
        checkFaultedCold(c, w, report.faulted);

    const auto none = fault::FaultPlan::build(
        0, fault::faultProfile("none"), fault::TraceShape{});
    const auto harsh = fault::FaultPlan::build(
        w.faultSeed, fault::faultProfile("harsh"), p.shape);

    // The same pass with the tracer off and on: the difference is the
    // tracing overhead.
    Tracer off(false);
    const auto untraced = replayPass(off, w, tree, none, harsh);
    tracer.setIteration(static_cast<std::uint32_t>(it));
    const auto pairs0 = counterValue("remap.pairs_evaluated");
    const auto busy0 = poolBusyNanos();
    const auto traced = replayPass(tracer, w, tree, none, harsh);
    const auto busy = poolBusyNanos() - busy0;
    const auto pairs = counterValue("remap.pairs_evaluated") - pairs0;
    probeDcSplit(tracer, traced.points, tree, w.report.placement);

    // The replay must reproduce what the public entry points computed.
    c.expect(traced.clean == digestResult(report.base),
             "traced replay differs from runPipeline");
    c.expect(traced.faulted == digestResult(report.faulted),
             "traced faulted replay differs from the fault-plan what-if");
    c.expect(traced.remap == digestResult(report.remap),
             "traced max-swaps replay differs from the what-if");
    c.expect(untraced.clean == traced.clean,
             "untraced replay differs from the traced replay");
    c.expect(traced.placed == place.placed,
             "traced placement differs from PlacementEngine::place");
    c.expect(traced.refined == place.refined,
             "traced refinement differs from Remapper::refine");
    checkServe(c, traced.serve, setup->serviceOf->size());
    c.expect(traced.serve.digest == untraced.serve.digest,
             "traced serve digest differs from the untraced one");
    c.stable("report", digestResult(report.base));
    c.stable("place", core::fingerprintAssignment(place.placed));
    c.stable("serve", traced.serve.digest);

    const auto self = tracer.selfMsByName(static_cast<std::uint32_t>(it));
    for (const char *layer :
         {"workload.generate", "fault.inject", "fault.trips",
          "trace.repair", "trace.stats", "core.asynchrony",
          "cluster.shape_index", "core.embed", "cluster.kmeans",
          "cluster.equalize", "core.distribute", "core.remap",
          "core.monitor", "core.compare", "baseline.oblivious",
          "serve.ingest", "serve.advance", "serve.epoch"}) {
        const auto f = self.find(layer);
        s[std::string(layer) + "_ms"].push_back(f == self.end() ? 0.0
                                                                : f->second);
    }
    s["graph.overhead_ms"].push_back(
        report.baseMs -
        tracer.selfMsUnder(static_cast<std::uint32_t>(it),
                           "phase.report.clean"));
    s["graph.ops_executed"].push_back(static_cast<double>(
        report.base.opsExecuted + report.faulted.opsExecuted +
        report.remap.opsExecuted));
    s["graph.cache_hits"].push_back(static_cast<double>(
        report.base.cacheHits + report.faulted.cacheHits +
        report.remap.cacheHits));
    s["trace.samples_repaired"].push_back(
        static_cast<double>(traced.samplesRepaired));
    s["core.remap_swaps"].push_back(static_cast<double>(traced.swaps));
    s["remap.pairs_evaluated"].push_back(static_cast<double>(pairs));
    s["serve.epochs_remap"].push_back(
        static_cast<double>(traced.serve.remaps));
    s["serve.epochs_replace"].push_back(
        static_cast<double>(traced.serve.replaces));
    s["util.pool_busy_over_wall"].push_back(
        static_cast<double>(busy) / (traced.wallMs * 1e6));
    s["trace.overhead_ms"].push_back(traced.wallMs - untraced.wallMs);
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

struct MetricDef {
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"report_ms", "ms"},
    {"whatif_faulted_ms", "ms"},
    {"whatif_remap_ms", "ms"},
    {"place_ms", "ms"},
    {"remap_ms", "ms"},
    {"extra_servers_pct", "%"},
    {"stream_msamples_per_s", "Msample/s"},
    {"epoch_p50_ms", "ms"},
    {"epoch_p95_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"workload.generate_ms", "ms"},
    {"graph.overhead_ms", "ms"},
    {"graph.ops_executed", "count"},
    {"graph.cache_hits", "count"},
    {"fault.inject_ms", "ms"},
    {"fault.trips_ms", "ms"},
    {"trace.repair_ms", "ms"},
    {"trace.samples_repaired", "count"},
    {"trace.stats_ms", "ms"},
    {"core.asynchrony_ms", "ms"},
    {"cluster.shape_index_ms", "ms"},
    {"core.embed_ms", "ms"},
    {"cluster.kmeans_ms", "ms"},
    {"cluster.equalize_ms", "ms"},
    {"core.distribute_ms", "ms"},
    {"core.remap_ms", "ms"},
    {"core.remap_swaps", "count"},
    {"remap.pairs_evaluated", "count"},
    {"core.monitor_ms", "ms"},
    {"core.compare_ms", "ms"},
    {"baseline.oblivious_ms", "ms"},
    {"serve.ingest_ms", "ms"},
    {"serve.advance_ms", "ms"},
    {"serve.epoch_ms", "ms"},
    {"serve.epochs_remap", "count"},
    {"serve.epochs_replace", "count"},
    {"util.pool_busy_over_wall", "ratio"},
    {"trace.overhead_ms", "ms"},
};

std::map<std::string, Metric>
summarize(bool traced, const Samples &s)
{
    std::map<std::string, Metric> out;
    const auto get = [&s](const std::string &name) {
        const auto it = s.find(name);
        return it == s.end() ? std::vector<double>{} : it->second;
    };
    if (traced) {
        for (const auto &d : kPerLayer) {
            const auto v = get(d.name);
            out[d.name] = {d.unit, median(v), v.size()};
        }
        return out;
    }
    for (const auto &d : kEndToEnd) {
        const std::string name = d.name;
        if (name == "peak_rss_mb") {
            out[name] = {d.unit, static_cast<double>(peakRssKb()) / 1024.0,
                         1};
        } else if (name == "epoch_p50_ms" || name == "epoch_p95_ms") {
            const auto v = get("epoch_latency_ms");
            out[name] = {d.unit,
                         percentile(v, name == "epoch_p50_ms" ? 0.5 : 0.95),
                         v.size()};
        } else {
            const auto v = get(name);
            out[name] = {d.unit, median(v), v.size()};
        }
    }
    return out;
}

void
writeNumber(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << v;
    else
        os << "null";
}

void
writeResultFile(const std::string &path, const std::string &workload,
                std::uint64_t seed, bool traced,
                int seconds, std::size_t iterations,
                const perfbench::HostInfo &host, const Checks &c,
                const std::map<std::string, Metric> &metrics,
                const Samples &samples)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "perfbench: cannot write " << path << "\n";
        return;
    }
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "{\n  \"workload\": \"" << workload << "\",\n  \"seed\": " << seed
       << ",\n  \"datasets\": [";
    for (std::uint64_t k = 0; k < kDatasets; ++k) {
        const auto s = datasetSeed(seed, k);
        os << (k ? ", " : "") << "{\"seed\": " << s
           << ", \"fault_seed\": " << (s ^ kFaultSeedMask) << "}";
    }
    os << "],\n  \"trace\": " << (traced ? 1 : 0)
       << ",\n  \"seconds\": " << seconds
       << ",\n  \"iterations\": " << iterations
       << ",\n  \"host\": " << perfbench::hostJson(host)
       << ",\n  \"attempted\": " << c.attempted
       << ",\n  \"failed\": " << c.failedOps << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < c.failures.size(); ++i)
        os << (i ? ", " : "") << "\"" << c.failures[i] << "\"";
    os << "],\n  \"fingerprints\": {";
    bool first = true;
    for (const auto &[name, fp] : c.fingerprints) {
        os << (first ? "" : ", ") << "\"" << name << "\": \"" << fp << "\"";
        first = false;
    }
    os << "},\n  \"metrics\": {\n";
    first = true;
    for (const auto &[name, m] : metrics) {
        os << (first ? "" : ",\n") << "    \"" << name
           << "\": {\"value\": ";
        writeNumber(os, m.value);
        os << ", \"unit\": \"" << m.unit << "\", \"samples\": " << m.samples
           << ", \"values\": [";
        const auto it = samples.find(name);
        if (it != samples.end())
            for (std::size_t i = 0; i < it->second.size(); ++i) {
                os << (i ? ", " : "");
                writeNumber(os, it->second[i]);
            }
        os << "]}";
        first = false;
    }
    os << "\n  }\n}\n";
}

int
usage()
{
    std::cerr << "usage: perfbench --workload dc3|fleet-10240 --seed N "
                 "--seconds S --trace 0|1 [--out FILE] [--spans FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name, out_path, spans_path;
    std::uint64_t seed = 2018;
    int seconds = 10;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                workload_name = value;
            else if (arg == "--seed")
                seed = std::stoull(value);
            else if (arg == "--seconds")
                seconds = std::stoi(value);
            else if (arg == "--trace")
                trace = std::stoi(value);
            else if (arg == "--out")
                out_path = value;
            else if (arg == "--spans")
                spans_path = value;
            else
                return usage();
        } catch (const std::exception &) {
            return usage();
        }
    }
    Workload probe;
    if (!makeWorkload(workload_name, seed, probe) || seconds < 1 ||
        (trace != 0 && trace != 1))
        return usage();
    const bool traced = trace == 1;

    const auto host = perfbench::probeHost(kPoolWidth);
    util::setThreadCount(host.poolWidth);
    std::cout << "{\"host\": " << perfbench::hostJson(host) << "}\n";

    Checks checks;
    Samples samples;
    Tracer tracer(traced);
    std::size_t iterations = 0;
    // Untraced, at least one iteration per dataset; traced, at least
    // one.  Then keep going until the run has measured for `seconds`.
    const std::size_t min_iterations = traced ? 1 : kDatasets;
    const auto start = Clock::now();
    try {
        while (iterations < min_iterations ||
               msSince(start) < 1e3 * seconds) {
            const std::uint64_t k = iterations % kDatasets;
            Workload w;
            makeWorkload(workload_name, datasetSeed(seed, k), w);
            checks.dataset = "d" + std::to_string(k);
            if (traced)
                tracedIteration(w, iterations, tracer, checks, samples);
            else
                untracedIteration(w, iterations, checks, samples);
            ++iterations;
        }
    } catch (const std::exception &e) {
        ++checks.attempted;
        ++checks.failedOps;
        checks.failures.push_back(std::string("error: ") + e.what());
    }

    const auto metrics = summarize(traced, samples);
    std::cout << std::setprecision(6);
    for (const auto &[name, m] : metrics)
        std::cout << "  " << std::left << std::setw(26) << name << " "
                  << std::setw(14) << m.value << " " << m.unit
                  << "  (n=" << m.samples << ")\n";
    std::cout << "  fingerprints:";
    for (const auto &[name, fp] : checks.fingerprints)
        std::cout << " " << name << "=" << fp;
    std::cout << "\n";
    for (const auto &f : checks.failures)
        std::cout << "  FAILED: " << f << "\n";
    if (!out_path.empty())
        writeResultFile(out_path, workload_name, seed, traced, seconds,
                        iterations, host,
                        checks, metrics, samples);
    if (traced && !spans_path.empty()) {
        std::ofstream os(spans_path);
        tracer.writeJson(os);
    }

    const bool correct = checks.failedOps == 0;
    std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
              << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(
                                            checks.attempted, 1)
              << ", \"failed\": " << checks.failedOps
              << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": {\"value\": ";
        writeNumber(std::cout, m.value);
        std::cout << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}

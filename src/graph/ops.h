#ifndef SOSIM_GRAPH_OPS_H
#define SOSIM_GRAPH_OPS_H

/**
 * @file
 * Typed pipeline ops and the report pipeline built from them.
 *
 * graph/graph.h is domain-agnostic; this layer binds the library's
 * stages to it as typed ops — InjectFaultsOp, RepairOp, StatsOp,
 * ScoreOp, EmbedOp, PlaceOp, RemapOp, MonitorOp and friends — each a
 * pure function from upstream Values to one output Value carrying a
 * content fingerprint, so downstream nodes re-run only when a value
 * they can observe actually changed.
 *
 * buildPipeline() assembles the full report pipeline (the exact
 * sequence of `sosim report`: generate -> inject -> repair -> oblivious
 * baseline -> embed -> distribute -> remap -> breaker trips -> compare
 * -> weekly monitoring) as one persistent OpGraph whose inputs are the
 * trace populations and config structs.  runPipeline() evaluates it —
 * optionally under a what-if Overlay — and returns every artifact the
 * report prints.  Strict-mode guarantee: with an empty overlay the
 * results are bit-identical to the legacy call chain (the golden-digest
 * ctest pins this), because each op body IS the legacy function.
 *
 * Config splitting: the placement config is exposed as two inputs,
 * fingerprinted by the fields each stage observes
 * (core::fingerprintEmbedConfig / fingerprintDistributeConfig), so a
 * what-if that only changes the clustering seed re-runs the distribute
 * cone while the embedding stays cached.  Likewise the monitor config
 * fingerprint excludes the action thresholds — those act in
 * FragmentationMonitor::ingest, outside the graph — so a threshold-only
 * what-if re-executes zero ops.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/headroom.h"
#include "core/monitor.h"
#include "core/placement.h"
#include "core/remap.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "graph/graph.h"
#include "power/power_tree.h"
#include "trace/repair.h"
#include "trace/time_series.h"
#include "workload/generator.h"

namespace sosim::pipeline {

/** Per-instance summary statistics of a trace population (StatsOp). */
struct PopulationStats {
    /** Stats of each instance's trace, in population order. */
    std::vector<trace::TraceStats> perTrace;
    /** Sum of the per-trace means (total average power). */
    double totalMeanPower = 0.0;
    /** Largest per-trace peak. */
    double peakOfPeaks = 0.0;
};

/** Output of RemapOp: the refined assignment plus the accepted swaps. */
struct RemapResult {
    power::Assignment assignment;
    std::vector<core::SwapRecord> swaps;
};

/**
 * Tolerant trace-population accessor: accepts a Value carrying a plain
 * std::vector<trace::TimeSeries>, a fault::InjectedTraces or a
 * trace::RepairedTraces, so ops compose regardless of which upstream
 * stage produced their traces.  Fatal on anything else.
 */
const std::vector<trace::TimeSeries> &tracesOf(const graph::Value &v);

/** Tolerant assignment accessor: power::Assignment or RemapResult. */
const power::Assignment &assignmentOf(const graph::Value &v);

// ---------------------------------------------------------------------
// Typed op builders.  Each add() appends one node to `g` whose body is
// the corresponding library function; ops that read the power tree take
// it as a shared_ptr (captured by the node) and bake
// core::fingerprintTree into their config fingerprint.
// ---------------------------------------------------------------------

/** fault::injectedCopy(traces, plan) -> fault::InjectedTraces. */
struct InjectFaultsOp {
    static graph::Handle add(graph::OpGraph &g, std::string name,
                             graph::Handle traces, graph::Handle plan);
};

/** trace::repairedCopy(traces, policy) -> trace::RepairedTraces. */
struct RepairOp {
    static graph::Handle add(graph::OpGraph &g, std::string name,
                             graph::Handle traces, graph::Handle policy);
};

/** Per-trace stats via the shared trace::LazyStatsTable helper. */
struct StatsOp {
    static graph::Handle add(graph::OpGraph &g, std::string name,
                             graph::Handle traces);
};

/** core::asynchronyScore of the whole population -> double. */
struct ScoreOp {
    static graph::Handle add(graph::OpGraph &g, std::string name,
                             graph::Handle traces);
};

/**
 * cluster::ShapeIndex::build over a trace population ->
 * cluster::ShapeIndex.  The one shared shape-embedding build: its
 * cached output (keyed by the index's own content fingerprint) feeds
 * the kShape embedding path, remap pruning and the monitor's drift
 * diagnostic, so the population is shape-embedded once per pipeline no
 * matter how many consumers run or how many what-if overlays re-enter
 * the graph.
 */
struct ShapeIndexOp {
    static graph::Handle add(graph::OpGraph &g, std::string name,
                             graph::Handle traces);
};

/**
 * S-trace extraction + population embedding
 * (core::extractServiceTraces + core::embedPopulation) ->
 * std::vector<cluster::Point>.  The config input is a full
 * core::PlacementConfig fingerprinted by fingerprintEmbedConfig.  With
 * config.embedding == kShape the op instead forwards the shared
 * ShapeIndex's points (`shapes` must then be a ShapeIndexOp over the
 * same traces); kScoreVector never evaluates the shapes input.
 */
struct EmbedOp {
    static graph::Handle add(graph::OpGraph &g, std::string name,
                             graph::Handle traces, graph::Handle services,
                             graph::Handle config, graph::Handle shapes);
};

/**
 * Recursive distribution of an embedding
 * (PlacementEngine::placeWithEmbedding) -> power::Assignment.  The
 * config input is a full core::PlacementConfig fingerprinted by
 * fingerprintDistributeConfig.
 */
struct PlaceOp {
    static graph::Handle add(graph::OpGraph &g, std::string name,
                             graph::Handle embedding, graph::Handle config,
                             std::shared_ptr<const power::PowerTree> tree);
};

/** baseline::obliviousPlacement -> power::Assignment. */
struct ObliviousPlaceOp {
    static graph::Handle add(graph::OpGraph &g, std::string name,
                             graph::Handle services,
                             std::shared_ptr<const power::PowerTree> tree);
};

/**
 * Swap-based refinement (Remapper::refine) -> RemapResult.  When the
 * traces input carries a trace::RepairedTraces, its per-instance
 * validity gates swap candidacy exactly as the CLI's faulted path does;
 * an all-valid population makes the gate a no-op, so the clean path is
 * bit-identical to refining without a validity vector.  The shared
 * ShapeIndex (`shapes`, a ShapeIndexOp over the same traces) feeds the
 * kCluster pruner so it skips its own re-embed; with pruning off the
 * index is ignored and results are bit-identical either way.
 */
struct RemapOp {
    static graph::Handle add(graph::OpGraph &g, std::string name,
                             graph::Handle assignment, graph::Handle traces,
                             graph::Handle config, graph::Handle shapes,
                             std::shared_ptr<const power::PowerTree> tree);
};

/** fault::injectBreakerTrips on a copy -> fault::InjectedTraces. */
struct BreakerTripsOp {
    static graph::Handle add(graph::OpGraph &g, std::string name,
                             graph::Handle traces, graph::Handle assignment,
                             graph::Handle plan,
                             std::shared_ptr<const power::PowerTree> tree);
};

/** core::comparePlacements -> core::HeadroomReport. */
struct CompareOp {
    static graph::Handle add(graph::OpGraph &g, std::string name,
                             graph::Handle traces, graph::Handle baseline,
                             graph::Handle optimized,
                             std::shared_ptr<const power::PowerTree> tree);
};

/**
 * core::measureWeek -> core::MonitorMeasurement (the pure half of one
 * week's observation; the stateful threshold judgment happens in
 * FragmentationMonitor::ingest, outside the graph).  The training
 * ShapeIndex (`shapes`) enables the measurement's shape-drift
 * diagnostic — it annotates, never steers, the recommended action.
 */
struct MonitorOp {
    static graph::Handle add(graph::OpGraph &g, std::string name,
                             graph::Handle traces, graph::Handle assignment,
                             graph::Handle config, graph::Handle shapes,
                             std::shared_ptr<const power::PowerTree> tree);
};

// ---------------------------------------------------------------------
// The report pipeline.
// ---------------------------------------------------------------------

/** Everything needed to build the report pipeline. */
struct PipelineSpec {
    /** Datacenter generation spec (preset + scale/interval/weeks/seed). */
    workload::DatacenterSpec dc;
    /** Degrade the generated traces with a deterministic fault plan? */
    bool faulted = false;
    std::uint64_t faultSeed = 0;
    std::string faultProfile = "harsh";
    /** Gap-repair policy applied after injection. */
    trace::RepairPolicy repairPolicy = trace::RepairPolicy::Interpolate;
    core::PlacementConfig placement;
    core::RemapConfig remap;
    core::MonitorConfig monitor;
};

/**
 * A built report pipeline: the op graph plus handles to every input and
 * op, ready for runPipeline().  Move-only (owns the OpGraph); the power
 * tree is shared with the op closures, so moving the Pipeline is safe.
 */
struct Pipeline {
    PipelineSpec spec;
    std::shared_ptr<const power::PowerTree> tree;
    /** Shape of the generated trace populations (for what-if plans). */
    fault::TraceShape shape;
    std::size_t instanceCount = 0;

    graph::OpGraph graph;

    // Inputs.
    graph::Handle trainingIn;
    graph::Handle testIn;
    graph::Handle serviceOfIn;
    graph::Handle planIn;
    graph::Handle repairPolicyIn;
    graph::Handle embedConfigIn;
    graph::Handle distributeConfigIn;
    graph::Handle remapConfigIn;
    graph::Handle monitorConfigIn;
    std::vector<graph::Handle> weekIns;

    // Ops.
    graph::Handle injectTrainingOp;
    graph::Handle repairTrainingOp;
    graph::Handle injectTestOp;
    graph::Handle repairTestOp;
    graph::Handle statsOp;
    graph::Handle scoreOp;
    graph::Handle obliviousOp;
    graph::Handle shapeIndexOp;
    graph::Handle embedOp;
    graph::Handle placeOp;
    graph::Handle remapOp;
    graph::Handle tripsOp;
    graph::Handle compareOp;
    std::vector<graph::Handle> weekInjectOps;
    std::vector<graph::Handle> weekMeasureOps;
};

/** Everything one pipeline evaluation produces (what `report` prints). */
struct PipelineResult {
    fault::FaultPlan plan;
    fault::InjectionReport trainingFaults;
    trace::RepairSummary trainingRepair;
    power::Assignment oblivious;
    power::Assignment optimized;
    std::vector<core::SwapRecord> swaps;
    fault::InjectionReport tripFaults;
    core::HeadroomReport comparison;
    std::vector<core::MonitorObservation> weekly;
    PopulationStats trainingStats;
    double trainingScore = 0.0;
    /** Op bodies executed by this run (graph cache misses delta). */
    std::uint64_t opsExecuted = 0;
    /** Graph cache hits served to this run (delta). */
    std::uint64_t cacheHits = 0;
};

/**
 * Generate the datacenter and assemble the report pipeline.  With
 * spec.faulted == false the fault plan input is the empty "none"
 * profile, which makes the inject and repair nodes value-level no-ops —
 * the pipeline shape is identical either way.
 */
Pipeline buildPipeline(const PipelineSpec &spec);

/**
 * Evaluate the pipeline, optionally under a what-if overlay, and
 * collect every report artifact.  Repeated calls are incremental: only
 * ops whose observable inputs changed re-execute (see
 * PipelineResult::opsExecuted).  The weekly observations are produced
 * by feeding each week's cached-or-recomputed measurement through a
 * fresh FragmentationMonitor in week order, using the (possibly
 * overlaid) monitor config's thresholds.
 */
PipelineResult runPipeline(Pipeline &p,
                           const graph::Overlay &overlay = {});

// ---------------------------------------------------------------------
// What-if overlay factories.  Each returns an Overlay shadowing one
// config or plan input of `p` with a modified copy of the base value;
// compose them with Overlay::merged().
// ---------------------------------------------------------------------

graph::Overlay whatIfMaxSwaps(const Pipeline &p, int max_swaps);
graph::Overlay whatIfPlacementSeed(const Pipeline &p, std::uint64_t seed);
graph::Overlay whatIfTopServices(const Pipeline &p,
                                 std::size_t top_services);
graph::Overlay whatIfClustersPerChild(const Pipeline &p, std::size_t n);
graph::Overlay whatIfPlacementEmbedding(const Pipeline &p,
                                        core::PlacementEmbedding embedding);
graph::Overlay whatIfRepairPolicy(const Pipeline &p,
                                  trace::RepairPolicy policy);
graph::Overlay whatIfFaultPlan(const Pipeline &p, std::uint64_t seed,
                               const std::string &profile);
graph::Overlay whatIfMonitorLevel(const Pipeline &p, power::Level level);
graph::Overlay whatIfMonitorThresholds(const Pipeline &p,
                                       double remap_threshold,
                                       double replace_threshold);

/**
 * Parse a `--what-if` specification — comma-separated KEY=VALUE pairs —
 * into a composed overlay.  Keys: max-swaps, placement-seed,
 * top-services, clusters-per-child, placement-embedding (score|shape),
 * repair-policy (none|hold_last|interpolate), fault-plan
 * (SEED[:PROFILE]), monitor-level (SUITE|MSB|SB|RPP|RACK),
 * remap-threshold, replace-threshold.  Fatal on an unknown key or
 * malformed pair.
 */
graph::Overlay parseWhatIf(const Pipeline &p, const std::string &text);

} // namespace sosim::pipeline

#endif // SOSIM_GRAPH_OPS_H

#ifndef SOSIM_GRAPH_OPS_H
#define SOSIM_GRAPH_OPS_H

/**
 * @file
 * The report pipeline built on the op graph.
 *
 * graph/graph.h is domain-agnostic; buildPipeline() binds the library's
 * stages to it.  It assembles the full report pipeline (the exact
 * sequence of `sosim report`: generate -> inject + repair -> oblivious
 * baseline -> embed -> distribute -> remap -> breaker trips + compare
 * -> weekly monitoring) as one persistent OpGraph and registers each
 * stage body with OpGraph::op: a pure function from upstream Values to
 * one bare output payload, which the graph names by the node's
 * signature, so a node re-runs only when an input it observes or its
 * config changed.  The graph's inputs are the trace populations and
 * config structs, each boxed with its content fingerprint.
 * runPipeline() evaluates it — optionally under a what-if Overlay — and
 * returns every artifact the report prints.  Strict-mode guarantee:
 * with an empty overlay the results are bit-identical to the legacy call
 * chain (the golden-digest ctest pins this), because each op body IS the
 * legacy function — or, for a fault stage whose plan schedules no trace
 * fault, the input population itself, passed through uncopied.
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

/** Per-instance summary statistics of a trace population. */
struct PopulationStats {
    /** Stats of each instance's trace, in population order. */
    std::vector<trace::TraceStats> perTrace;
    /** Sum of the per-trace means (total average power). */
    double totalMeanPower = 0.0;
    /** Largest per-trace peak. */
    double peakOfPeaks = 0.0;
};

/** Output of fault.degrade.*: a population injected, then repaired, or
 *  the input's own payload when there was nothing to inject or repair. */
struct DegradedTraces {
    std::shared_ptr<const std::vector<trace::TimeSeries>> traces;
    fault::InjectionReport faults;
    trace::RepairSummary repair;
};

/** Output of compare.headroom: the comparison under breaker trips. */
struct HeadroomResult {
    core::HeadroomReport comparison;
    fault::InjectionReport trips;
};

/** Tolerant assignment accessor: power::Assignment or core::RemapRun. */
const power::Assignment &assignmentOf(const graph::Value &v);

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
    /** Boxes the same payload as weekIns.back() until an edit. */
    graph::Handle testIn;
    graph::Handle serviceOfIn;
    graph::Handle planIn;
    graph::Handle repairPolicyIn;
    graph::Handle embedConfigIn;
    graph::Handle distributeConfigIn;
    graph::Handle remapConfigIn;
    /** spec.remap under another name; no what-if shadows it. */
    graph::Handle remapBaseConfigIn;
    graph::Handle monitorConfigIn;
    std::vector<graph::Handle> weekIns;

    // Ops.
    graph::Handle degradeTrainingOp;
    graph::Handle degradeTestOp;
    graph::Handle statsOp;
    graph::Handle scoreOp;
    graph::Handle obliviousOp;
    graph::Handle shapeIndexOp;
    graph::Handle embedOp;
    graph::Handle placeOp;
    /** remap.base: the spec's own refinement, with its end state. */
    graph::Handle remapBaseOp;
    /** remap.refine: the (possibly overlaid) config's refinement. */
    graph::Handle remapOp;
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
 * Generate the datacenter and assemble the report pipeline.  The spec
 * needs at least two weeks, so that the test week is held out of the
 * training average.  With spec.faulted == false the fault plan input is
 * the empty "none" profile, so the degrade and inject nodes pass their
 * populations through without copying them (a degrade node copies and
 * repairs a population that has a gap) — the pipeline shape is
 * identical either way.
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

/**
 * The what-if surface.  Parse a `--what-if` specification —
 * comma-separated KEY=VALUE pairs — into one overlay that shadows each
 * touched config or plan input of `p` with a modified copy of the base
 * value; compose the results with Overlay::merged().  Keys: max-swaps,
 * placement-seed, top-services, clusters-per-child, repair-policy
 * (none|hold_last|interpolate), fault-plan (SEED[:PROFILE]),
 * monitor-level (SUITE|MSB|SB|RPP|RACK), remap-threshold,
 * replace-threshold.  Fatal on an unknown key, a malformed pair, or a
 * value the placement, remap or monitor engine rejects — before any op
 * executes.
 */
graph::Overlay parseWhatIf(const Pipeline &p, const std::string &text);

/** parseWhatIf(p, "max-swaps=N"). */
graph::Overlay whatIfMaxSwaps(const Pipeline &p, int max_swaps);

/** parseWhatIf(p, "fault-plan=SEED:PROFILE"). */
graph::Overlay whatIfFaultPlan(const Pipeline &p, std::uint64_t seed,
                               const std::string &profile);

} // namespace sosim::pipeline

#endif // SOSIM_GRAPH_OPS_H

/**
 * @file
 * Robustness ablation: how much placement quality survives degraded
 * telemetry (EXPERIMENTS.md "Robustness").
 *
 * For sample-loss rates of 0%, 1% and 5% (plus the stock "mild" and
 * "harsh" profiles), training traces are degraded with a deterministic
 * FaultPlan, repaired under each policy, and fed to the normal
 * placement pipeline; every variant is evaluated against the *clean*
 * held-out test week, so the numbers isolate what bad inputs cost the
 * placement decision itself.  A validity-gated remap pass shows the
 * swap filter's contribution on top.
 *
 * The sweep drives the report pipeline as an op graph.  Each degraded
 * variant overlays the training-trace input with a pre-injected copy
 * (the pipeline's own fault plan stays "none", keeping the evaluation
 * week clean); the graph's repair op recovers the gaps and its remap op
 * picks up the repair's validity vector automatically.  The oblivious
 * baseline, the clean test cone and the weekly monitoring stay cached
 * across the whole sweep.
 */

#include <iostream>
#include <vector>

#include "core/fingerprints.h"
#include "core/headroom.h"
#include "core/remap.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "graph/ops.h"
#include "trace/repair.h"
#include "util/table.h"
#include "workload/dc_presets.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

double
rpp(const pipeline::PipelineResult &r)
{
    return r.comparison.at(power::Level::Rpp).peakReductionFraction;
}

/** Overlay shadowing the training input with a fault-degraded copy. */
graph::Overlay
degradedTraining(const pipeline::Pipeline &p,
                 const std::vector<trace::TimeSeries> &clean,
                 const fault::FaultPlan &plan)
{
    auto degraded = fault::injectedCopy(clean, plan).traces;
    const auto fp = core::fingerprintTraces(degraded);
    return graph::Overlay().set(
        p.trainingIn, graph::Value::of(std::move(degraded), fp));
}

} // namespace

int
main()
{
    using namespace sosim;

    std::cout << "=== Ablation: placement robustness under degraded "
                 "telemetry (DC3, RPP reduction vs oblivious) ===\n\n";

    workload::PresetOptions options;
    options.scale = 0.5;

    pipeline::PipelineSpec pspec;
    pspec.dc = workload::buildDc3Spec(options);
    pspec.remap.maxSwaps = 0; // Remap rows opt in via what-if.
    auto p = pipeline::buildPipeline(pspec);
    const auto base = pipeline::runPipeline(p);
    const auto cold_ops = base.opsExecuted;
    std::size_t sweep_ops = 0;
    std::size_t variants = 0;

    const auto clean_training =
        p.graph.eval(p.trainingIn).as<std::vector<trace::TimeSeries>>();
    const fault::TraceShape shape = p.shape;

    util::Table table(
        {"variant", "valid fraction", "RPP peak reduction"});

    // Clean-input reference: the base pipeline evaluation.
    table.addRow({"clean training traces", "100.0%",
                  util::fmtPercent(rpp(base))});

    // Sample-loss sweep at fixed seed: 0% is a no-op control proving
    // the fault path itself costs nothing; 1% and 5% bracket the
    // telemetry quality a production collection plane actually delivers.
    for (const double loss : {0.0, 0.01, 0.05}) {
        fault::FaultProfile profile;
        profile.name = "loss-sweep";
        profile.sampleLossRate = loss;
        const auto plan = fault::FaultPlan::build(7, profile, shape);
        const auto r = pipeline::runPipeline(
            p, degradedTraining(p, clean_training, plan));
        sweep_ops += r.opsExecuted;
        ++variants;
        table.addRow({
            util::fmtPercent(loss, 0) + " sample loss, interpolated",
            util::fmtPercent(r.trainingRepair.meanValidFraction()),
            util::fmtPercent(rpp(r)),
        });
    }

    // Repair-policy ablation at 5% loss: hold-last vs interpolation —
    // the same degraded input, with the repair-policy input shadowed on
    // top.
    {
        fault::FaultProfile profile;
        profile.name = "loss-sweep";
        profile.sampleLossRate = 0.05;
        const auto plan = fault::FaultPlan::build(7, profile, shape);
        const auto r = pipeline::runPipeline(
            p, degradedTraining(p, clean_training, plan)
                   .merged(pipeline::parseWhatIf(
                       p, "repair-policy=hold_last")));
        sweep_ops += r.opsExecuted;
        ++variants;
        table.addRow({
            "5% sample loss, hold-last",
            util::fmtPercent(r.trainingRepair.meanValidFraction()),
            util::fmtPercent(rpp(r)),
        });
    }

    // Full preset profiles: gaps plus stuck sensors, skew, lost traces.
    for (const char *name : {"mild", "harsh"}) {
        const auto plan =
            fault::FaultPlan::build(7, fault::faultProfile(name), shape);
        const auto overlay = degradedTraining(p, clean_training, plan);
        const auto r = pipeline::runPipeline(p, overlay);
        sweep_ops += r.opsExecuted;
        ++variants;
        table.addRow({
            std::string(name) + " profile, interpolated",
            util::fmtPercent(r.trainingRepair.meanValidFraction()),
            util::fmtPercent(rpp(r)),
        });

        // Validity-gated remap on top: low-validity instances are
        // frozen in place, everything else may still swap.  Stacking
        // the max-swaps what-if reuses the cached embed/distribute
        // results from the row above.
        const auto rr = pipeline::runPipeline(
            p, overlay.merged(pipeline::parseWhatIf(
                   p, "max-swaps=" + std::to_string(
                                         core::RemapConfig{}.maxSwaps))));
        sweep_ops += rr.opsExecuted;
        ++variants;
        table.addRow({
            std::string(name) + " profile + validity-gated remap",
            util::fmtPercent(rr.trainingRepair.meanValidFraction()),
            util::fmtPercent(rpp(rr)),
        });
    }

    table.print(std::cout);
    std::cout << "\npipeline cache: " << variants
              << " graph-driven variants executed " << sweep_ops
              << " ops total (a cold pipeline run is " << cold_ops
              << " ops; naive re-runs would be " << variants * cold_ops
              << ")\n";
    return 0;
}

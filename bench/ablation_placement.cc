/**
 * @file
 * Ablation study of the placement framework's design choices
 * (DESIGN.md section 5):
 *
 *   1. cluster granularity h = q * clustersPerChild,
 *   2. equal-size cluster balancing on/off,
 *   3. number of S-trace basis services |B|,
 *   4. training window (1 vs 2 weeks averaged),
 *   5. trace resolution (5- vs 15- vs 60-minute sampling),
 *   6. random vs oblivious vs workload-aware placement,
 *   7. remapping swaps on top of each starting placement.
 *
 * All variants report RPP-level peak reduction vs the oblivious
 * baseline, evaluated on the held-out test week of DC3.
 *
 * The sweep drives the report pipeline as an op graph: config variants
 * are what-if overlays (the trace embedding stays cached across the
 * clustering sweep), and the training-window/resolution variants are
 * setInput edits that re-run only the training cone.  The
 * cache summary printed at the end shows the op executions the graph
 * saved versus re-running the pipeline cold per variant.
 */

#include <iostream>

#include "baseline/oblivious.h"
#include "core/fingerprints.h"
#include "core/headroom.h"
#include "core/placement.h"
#include "core/remap.h"
#include "graph/ops.h"
#include "util/table.h"
#include "workload/dc_presets.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

double
rppReduction(const power::PowerTree &tree,
             const std::vector<trace::TimeSeries> &test,
             const power::Assignment &baseline_assignment,
             const power::Assignment &assignment)
{
    return core::comparePlacements(tree, test, baseline_assignment,
                                   assignment)
        .at(power::Level::Rpp)
        .peakReductionFraction;
}

double
rpp(const pipeline::PipelineResult &r)
{
    return r.comparison.at(power::Level::Rpp).peakReductionFraction;
}

} // namespace

int
main()
{
    using namespace sosim;

    std::cout << "=== Ablation: placement design choices (DC3, RPP "
                 "reduction vs oblivious) ===\n\n";

    workload::PresetOptions options;
    options.scale = 0.5; // Half scale keeps the sweep fast.

    pipeline::PipelineSpec pspec;
    pspec.dc = workload::buildDc3Spec(options);
    pspec.remap.maxSwaps = 0; // Placement-only rows; remap is a what-if.
    auto p = pipeline::buildPipeline(pspec);
    const auto base = pipeline::runPipeline(p);
    const auto cold_ops = base.opsExecuted;
    std::size_t sweep_ops = 0;
    std::size_t variants = 0;

    const auto training =
        p.graph.eval(p.trainingIn).as<std::vector<trace::TimeSeries>>();
    const auto test =
        p.graph.eval(p.testIn).as<std::vector<trace::TimeSeries>>();

    util::Table table({"variant", "RPP peak reduction"});

    // 1 & 2: clustering granularity and balancing — pure
    // distribute-config overlays, so the embedding is computed once for
    // all six rows.
    for (const std::size_t cpc : {1u, 2u, 4u}) {
        for (const bool balance : {true, false}) {
            core::PlacementConfig config;
            config.clustersPerChild = cpc;
            config.balanceClusters = balance;
            const auto overlay = graph::Overlay().set(
                p.distributeConfigIn,
                graph::Value::of(
                    config, core::fingerprintDistributeConfig(config)));
            const auto r = pipeline::runPipeline(p, overlay);
            sweep_ops += r.opsExecuted;
            ++variants;
            table.addRow({
                "clustersPerChild=" + std::to_string(cpc) +
                    (balance ? ", balanced" : ", unbalanced"),
                util::fmtPercent(rpp(r)),
            });
        }
    }

    // 3: S-trace basis size |B| — embed-config overlays.
    for (const std::size_t top : {2u, 5u, 10u}) {
        const auto r = pipeline::runPipeline(
            p, pipeline::parseWhatIf(p, "top-services=" +
                                            std::to_string(top)));
        sweep_ops += r.opsExecuted;
        ++variants;
        table.addRow({
            "topServices=" + std::to_string(top),
            util::fmtPercent(rpp(r)),
        });
    }

    // 4: training window — single week vs averaged weeks (Eq. 4).  An
    // input edit: only the training cone re-runs.
    {
        const auto dc = workload::generate(pspec.dc);
        std::vector<trace::TimeSeries> one_week;
        for (std::size_t i = 0; i < dc.instanceCount(); ++i)
            one_week.push_back(dc.weekTrace(i, 0));
        const auto fp = core::fingerprintTraces(one_week);
        p.graph.setInput(p.trainingIn,
                         graph::Value::of(std::move(one_week), fp));
        const auto r = pipeline::runPipeline(p);
        sweep_ops += r.opsExecuted;
        ++variants;
        table.addRow({
            "train on week 1 only (no averaging)",
            util::fmtPercent(rpp(r)),
        });
    }

    // 5: trace resolution — more input edits.
    for (const int resample : {15, 60}) {
        std::vector<trace::TimeSeries> coarse;
        for (const auto &t : training)
            coarse.push_back(t.resample(resample));
        const auto fp = core::fingerprintTraces(coarse);
        p.graph.setInput(p.trainingIn,
                         graph::Value::of(std::move(coarse), fp));
        const auto r = pipeline::runPipeline(p);
        sweep_ops += r.opsExecuted;
        ++variants;
        table.addRow({
            "training traces resampled to " + std::to_string(resample) +
                " min",
            util::fmtPercent(rpp(r)),
        });
    }

    // Back to the averaged training traces: the original fingerprint
    // restores the base signatures, so cached results still apply.
    p.graph.setInput(p.trainingIn,
                     graph::Value::of(training,
                                      core::fingerprintTraces(training)));

    // 6: placement strategies head to head.  Random placement has no op
    // (it ignores the traces), so those rows use the library directly.
    {
        const auto random = baseline::randomPlacement(
            *p.tree, p.instanceCount, 11);
        table.addRow({
            "random placement",
            util::fmtPercent(
                rppReduction(*p.tree, test, base.oblivious, random)),
        });
        table.addRow({
            "workload-aware placement (default)",
            util::fmtPercent(rpp(base)),
        });

        // 7: remapping swaps on top.
        core::RemapConfig rc;
        rc.maxSwaps = 32;
        core::Remapper remapper(*p.tree, rc);
        auto random_remapped = random;
        remapper.refine(random_remapped, training);
        table.addRow({
            "random + 32 remap swaps",
            util::fmtPercent(rppReduction(*p.tree, test, base.oblivious,
                                          random_remapped)),
        });
        const auto r =
            pipeline::runPipeline(p, pipeline::parseWhatIf(p, "max-swaps=32"));
        sweep_ops += r.opsExecuted;
        ++variants;
        table.addRow({
            "workload-aware + 32 remap swaps",
            util::fmtPercent(rpp(r)),
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

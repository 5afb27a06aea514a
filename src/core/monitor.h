#ifndef SOSIM_CORE_MONITOR_H
#define SOSIM_CORE_MONITOR_H

/**
 * @file
 * Continuous fragmentation monitoring (section 3.6, operationalized).
 *
 * "Our framework continuously records the I-traces and the S-traces, and
 * dynamically re-evaluates the severity of the fragmentation problem by
 * monitoring the sum of peaks of power traces at each level of power
 * infrastructure."
 *
 * The monitor ingests one week of I-traces at a time, tracks the
 * per-level sum of peaks of the current placement against the best
 * placement seen, and recommends an action: nothing, incremental
 * remapping, or a full re-placement.
 *
 * MonitorConfig holds what callers vary: the watched level, the
 * baseline window and the two thresholds.  The degraded-data handling
 * is fixed: gaps are repaired under kMonitorRepairPolicy, instances
 * below the shared floor trace::kMinValidFraction are dropped, and a
 * degraded week faces thresholds widened by kDegradedThresholdFactor.
 */

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "cluster/shape_index.h"
#include "power/power_tree.h"
#include "trace/repair.h"
#include "trace/time_series.h"

namespace sosim::core {

/** What the monitor recommends after an observation. */
enum class MonitorAction {
    /** Placement quality is within tolerance of its baseline. */
    None,
    /** Mild degradation: run the swap-based Remapper. */
    Remap,
    /** Severe degradation: derive a fresh placement. */
    Replace,
};

/** Printable action name. */
std::string monitorActionName(MonitorAction action);

/** Gap-repair policy applied to a week whose telemetry has NaN samples:
 *  to a copy of a borrowed week, in place in an OwnedWeek. */
inline constexpr trace::RepairPolicy kMonitorRepairPolicy =
    trace::RepairPolicy::Interpolate;

/**
 * Threshold widening factor applied while data is degraded: both action
 * thresholds are multiplied by this, so noisy weeks must show
 * proportionally more degradation before the monitor recommends churn.
 * This is the conservative-headroom rule: acting on repaired data risks
 * remapping against sensor artifacts, so the monitor demands a wider
 * margin before it acts.  Degraded ratios are also kept out of the
 * baseline window so they cannot lower the baseline that future healthy
 * weeks are judged against.
 */
inline constexpr double kDegradedThresholdFactor = 2.0;

/** Monitor configuration. */
struct MonitorConfig {
    /** Level whose sum of peaks is watched (leaf-most reported level). */
    power::Level level = power::Level::Rpp;
    /** Weeks kept in the sliding baseline window. */
    std::size_t baselineWindowWeeks = 4;
    /** Relative ratio degradation that triggers a remap. */
    double remapThreshold = 0.02;
    /** Relative ratio degradation that triggers a full re-place. */
    double replaceThreshold = 0.08;
};

/**
 * The pure, data-derived half of one week's evaluation: everything
 * measureWeek can compute from (tree, config, traces, assignment) alone,
 * before the stateful baseline/threshold judgment of
 * FragmentationMonitor::ingest.  This is the output of the pipeline's
 * monitor.measure.week.* nodes.
 */
struct MonitorMeasurement {
    /** Sum of per-node peaks at the watched level. */
    double sumOfPeaks = 0.0;
    /** Placement-invariant reference: the root (DC) peak. */
    double rootPeak = 0.0;
    /**
     * Fragmentation ratio: sumOfPeaks / rootPeak.  Normalizing by the
     * root peak cancels overall traffic growth, isolating placement
     * quality drift from load drift.  The zero-power sentinel 0.0 when
     * no instance draws power (core/asynchrony.h); such a week is
     * flagged degradedData and judged MonitorAction::None.
     */
    double fragmentationRatio = 0.0;
    /**
     * True when the week's telemetry contained missing samples and the
     * ratio was computed from repaired data.  Degraded observations are
     * flagged, judged against conservatively widened thresholds, and
     * kept out of the baseline window (see MonitorConfig).
     */
    bool degradedData = false;
    /** Mean valid fraction of the week's I-traces before repair. */
    double validFraction = 1.0;
    /** Samples filled in by the repair policy. */
    std::size_t repairedSamples = 0;
    /** Instances below trace::kMinValidFraction, excluded from
     *  aggregation. */
    std::size_t excludedInstances = 0;
    /**
     * Workload-drift diagnostic: mean distance between this week's
     * shape embeddings and the training population's (see
     * cluster::ShapeIndex::meanDriftFrom).  0.0 when no training index
     * was supplied to measureWeek.  Purely informational — it never
     * influences the recommended action.
     */
    double shapeDrift = 0.0;
};

/** One week's evaluation record: the measurement plus its judgment. */
struct MonitorObservation : MonitorMeasurement {
    /** Week index (0-based ingestion order). */
    std::size_t week = 0;
    MonitorAction action = MonitorAction::None;
    /**
     * Wall-clock seconds observeWeek() spent evaluating this week
     * (aggregation + peak scans).  Also recorded into the
     * "monitor.observe_seconds" histogram.
     */
    double evalSeconds = 0.0;
};

/** A week of I-traces handed over to measureWeek's owning form. */
struct OwnedWeek {
    std::vector<trace::TimeSeries> traces;
    /** Set by measureWeek: pre-repair validity, or empty if no gap. */
    std::vector<double> validBefore;
};

/**
 * Evaluate one week of I-traces against a placement: validity sweep,
 * gap repair into one copy of the week (the caller's traces are never
 * mutated), aggregation, and the sum-of-peaks / root-peak ratio.  Pure
 * function of its arguments — the body of the pipeline's
 * monitor.measure.week.* nodes and the first half of
 * FragmentationMonitor::observeWeek.  Only the level field of the
 * config is read (see core::fingerprintMonitorMeasureConfig).
 *
 * When `training` is supplied (the shared ShapeIndex built over the
 * training population — the same index placement and remap pruning
 * consume), the measurement also reports the week's mean shape drift
 * from it (MonitorMeasurement::shapeDrift); degraded weeks embed their
 * repaired rows so sensor gaps do not masquerade as workload drift.
 * The drift is a diagnostic and never changes the computed ratio.
 */
MonitorMeasurement
measureWeek(const power::PowerTree &tree, const MonitorConfig &config,
            const std::vector<trace::TimeSeries> &itraces,
            const power::Assignment &assignment,
            const cluster::ShapeIndex *training = nullptr);

/**
 * The owning form: the same measurement and no copy.  Each gapped row of
 * `week.traces` is repaired in place, so the rows become
 * trace::repairedCopy(rows, kMonitorRepairPolicy).traces, and the
 * validity is left in `week.validBefore`; a clean week stays as it was.
 */
MonitorMeasurement
measureWeek(const power::PowerTree &tree, const MonitorConfig &config,
            OwnedWeek &week, const power::Assignment &assignment,
            const cluster::ShapeIndex *training = nullptr);

/**
 * Tracks placement quality over successive weeks of telemetry.
 */
class FragmentationMonitor
{
  public:
    /**
     * @param tree   Power infrastructure (not owned).
     * @param config Thresholds and window length.
     */
    FragmentationMonitor(const power::PowerTree &tree,
                         MonitorConfig config = {});

    /**
     * Ingest one week of I-traces for the current placement and obtain
     * a recommendation.
     *
     * The baseline is the minimum fragmentation ratio over the sliding
     * window; an observation whose ratio exceeds the baseline by the
     * configured thresholds triggers Remap / Replace.
     *
     * Degraded telemetry (NaN samples) is repaired, thinned and flagged
     * as measureWeek describes, and judged against thresholds widened
     * by kDegradedThresholdFactor.
     *
     * Equivalent to ingest(measureWeek(tree, config(), itraces,
     * assignment), seconds spent measuring).
     *
     * @param itraces    This week's I-trace of every instance.
     * @param assignment The placement currently deployed.
     */
    MonitorObservation
    observeWeek(const std::vector<trace::TimeSeries> &itraces,
                const power::Assignment &assignment);

    /**
     * Judge a measurement against the baseline window and record it:
     * threshold widening for degraded data, action selection, window
     * update, counters.  This is the stateful half of
     * observeWeek; pipeline drivers that computed their measurements
     * through a graph (core::measureWeek in monitor.measure.week.*)
     * feed them in here, in week order.
     *
     * @param m            The week's measurement.
     * @param eval_seconds Wall-clock seconds spent producing `m`
     *                     (recorded in the observation and the
     *                     "monitor.observe_seconds" histogram).
     */
    MonitorObservation
    ingest(const MonitorMeasurement &m, double eval_seconds = 0.0);

    /**
     * Tell the monitor the placement was re-derived: the baseline
     * window resets so old ratios do not mask the new placement.
     */
    void placementUpdated();

    /**
     * Serialized judgment state — the sliding baseline window and the
     * week counter — for serve-layer checkpoints (DESIGN.md section
     * 14).  restoreBaselineState() is the exact inverse: a monitor
     * restored from a checkpoint judges subsequent measurements
     * identically to one that ingested the same weeks live.
     */
    struct BaselineState {
        std::vector<double> window;
        std::size_t weekCounter = 0;
    };

    BaselineState baselineState() const;
    void restoreBaselineState(const BaselineState &state);

    const MonitorConfig &config() const { return config_; }

  private:
    const power::PowerTree &tree_;
    MonitorConfig config_;
    std::deque<double> window_;
    std::size_t weekCounter_ = 0;
};

} // namespace sosim::core

#endif // SOSIM_CORE_MONITOR_H

#ifndef SOSIM_TRACE_REPAIR_H
#define SOSIM_TRACE_REPAIR_H

/**
 * @file
 * Gap repair for degraded traces.
 *
 * The paper's week-averaging (section 3.3) defends against "significant
 * unusual short-term variations", but it assumes every sample exists.
 * Real telemetry loses samples: a sensor misses a scrape (a NaN gap), a
 * meter sticks, a whole instance drops off the collection plane.  This
 * module is the detection + repair half of the fault story (the
 * scheduling + injection half lives in src/fault): it finds NaN gaps in
 * a TimeSeries and fills them under an explicit policy, reporting how
 * much of the trace was fabricated so consumers (core::monitor,
 * core::remap) can discount repaired data instead of trusting it.
 *
 * The repair functions are deterministic and pure: the same input trace
 * and policy always produce the same output, preserving the pipeline's
 * seed-to-digest determinism contract (DESIGN.md section 9).
 */

#include <cstddef>
#include <string>
#include <vector>

#include "trace/kernels.h"
#include "trace/time_series.h"

namespace sosim::trace {

/** How NaN gaps are filled. */
enum class RepairPolicy {
    /** Leave gaps in place (detection only). */
    None,
    /** Hold the last valid sample across the gap (leading gaps
     *  back-fill from the first valid sample). */
    HoldLast,
    /** Linear interpolation between the valid neighbours of the gap;
     *  leading/trailing gaps extend the nearest valid sample. */
    Interpolate,
};

/** Printable policy name ("none", "hold_last", "interpolate"). */
std::string repairPolicyName(RepairPolicy policy);

/** Parse a policy name as printed by repairPolicyName (fatal on junk). */
RepairPolicy repairPolicyFromName(const std::string &name);

/**
 * Fraction of finite samples in a view, in [0, 1].  Empty views count
 * as fully valid (there is nothing missing).
 */
double validFraction(TraceView v);

/**
 * The validity floor shared by the degraded-data consumers: an instance
 * whose valid fraction before repair is below this is mostly
 * fabricated, so core::measureWeek drops it from the aggregation and
 * core::Remapper::refine never picks it as a swap candidate or partner.
 * An instance at exactly the floor passes both.
 */
inline constexpr double kMinValidFraction = 0.5;

/** Repair outcome for one series. */
struct RepairResult {
    /** Samples that were NaN and got filled (0 under RepairPolicy::None). */
    std::size_t samplesRepaired = 0;
    /** Valid fraction of the series before repair. */
    double validBefore = 1.0;
    /**
     * True when the series had no valid sample at all; such a series is
     * filled with zeros (there is nothing to extrapolate from) and its
     * instance should be excluded from placement decisions via
     * kMinValidFraction.
     */
    bool unrepairable = false;
};

/**
 * Fill the NaN gaps of one series in place under a policy.
 *
 * RepairPolicy::None only measures (the series is untouched); the other
 * policies leave the series NaN-free.  A series with no valid sample is
 * zero-filled and flagged unrepairable.
 */
RepairResult repairSeries(TimeSeries &ts, RepairPolicy policy);

/** Aggregate repair outcome for a bundle of traces. */
struct RepairSummary {
    /** Traces that contained at least one NaN sample. */
    std::size_t tracesDegraded = 0;
    /** Total samples filled across all traces. */
    std::size_t samplesRepaired = 0;
    /** Traces with no valid sample at all (zero-filled). */
    std::size_t tracesUnrepairable = 0;
    /** Per-trace valid fraction before repair (index = trace index). */
    std::vector<double> validBefore;

    /** Mean of validBefore (1.0 for an empty bundle). */
    double meanValidFraction() const;
};

/** A repaired trace population plus its aggregate repair summary. */
struct RepairedTraces {
    std::vector<TimeSeries> traces;
    RepairSummary summary;
};

/**
 * Repair every series of a bundle in place; emits
 * "trace.repair.samples_repaired" / "trace.repair.traces_degraded" /
 * "trace.repair.traces_unrepairable" counters and the
 * "trace.repair.valid_fraction" histogram.
 */
RepairSummary repairAll(std::vector<TimeSeries> &traces,
                        RepairPolicy policy);

/**
 * Functional form of repairAll: repair the population taken by value
 * and return (repaired traces, summary) as one result.
 */
RepairedTraces repairedCopy(std::vector<TimeSeries> traces,
                            RepairPolicy policy);

} // namespace sosim::trace

#endif // SOSIM_TRACE_REPAIR_H

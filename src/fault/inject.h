#ifndef SOSIM_FAULT_INJECT_H
#define SOSIM_FAULT_INJECT_H

/**
 * @file
 * Fault injectors: apply a FaultPlan to concrete traces and power trees.
 *
 * Injection is split from scheduling (fault_plan.h) so one plan can
 * degrade several copies of the same population — e.g. the training
 * traces before placement and the evaluation traces after — and so the
 * plan itself stays tree-agnostic.  Every injector is deterministic (a
 * pure function of its inputs) and counts what it did both in its
 * returned report and in the obs registry ("fault.*" counters), so a
 * `--metrics-out` dump shows exactly how much of the input was damaged.
 *
 * Application order inside injectTraceFaults matters and is fixed:
 * clock skew first (it permutes real samples), then stuck-at windows
 * (they overwrite real samples with a real reading), then dropout gaps
 * and whole-trace losses (they erase samples to NaN).  The NaN faults
 * go last so a gap is never "healed" by a later skew rotation.
 */

#include <cstddef>
#include <vector>

#include "fault/fault_plan.h"
#include "power/power_tree.h"
#include "trace/time_series.h"

namespace sosim::fault {

/** What an injector actually did (post-clipping, deduplicated). */
struct InjectionReport {
    /** Samples turned into NaN by dropout gaps and trace losses. */
    std::size_t samplesDropped = 0;
    /** Samples overwritten by stuck-at windows. */
    std::size_t samplesStuck = 0;
    /** Instances whose whole trace was lost. */
    std::size_t tracesLost = 0;
    /** Instances whose trace was rotated by clock skew. */
    std::size_t tracesSkewed = 0;
    /** Samples zeroed by breaker-trip blackouts. */
    std::size_t blackoutSamples = 0;
    /** Instances hit by at least one blackout. */
    std::size_t instancesBlackedOut = 0;
};

/** A degraded trace population plus the report of what was done to it. */
struct InjectedTraces {
    std::vector<trace::TimeSeries> traces;
    InjectionReport report;
};

/**
 * Apply the plan's trace-level faults (skew, stuck-at, gaps, loss) to a
 * trace population in place.  The population must match the plan's
 * shape.  Samples already NaN are not double-counted.
 */
InjectionReport
injectTraceFaults(std::vector<trace::TimeSeries> &traces,
                  const FaultPlan &plan);

/**
 * Functional form of injectTraceFaults: degrade the population taken by
 * value and return (degraded traces, report) as one result.  For
 * callers that own a population and want its degraded copy in one
 * expression: the CLI's serve path, the serve soak tool, the fault
 * ablation bench and perfbench.
 */
InjectedTraces
injectedCopy(std::vector<trace::TimeSeries> traces, const FaultPlan &plan);

/**
 * Apply the plan's breaker-trip events: for each trip, the target rack
 * (event.nodeOrdinal resolved over *occupied* racks, so sparse
 * topologies cannot waste a trip on an empty breaker) loses power, and
 * every instance assigned under it reads 0.0 from the trip sample for
 * the trip duration.  Zero, not NaN: the meter keeps reporting, the
 * subtree genuinely draws no power (section 2.2's tripped-breaker
 * shutdown).
 */
InjectionReport
injectBreakerTrips(std::vector<trace::TimeSeries> &traces,
                   const power::PowerTree &tree,
                   const power::Assignment &assignment,
                   const FaultPlan &plan);

/**
 * The shape check injectTraceFaults makes, with its error.  Returns
 * whether the plan schedules a gap, stuck sensor, skew or trace loss;
 * when it does not, injectTraceFaults changes nothing, so a caller can
 * skip the copy it would degrade.
 */
bool checkTraceFaults(const std::vector<trace::TimeSeries> &traces,
                      const FaultPlan &plan);

/**
 * The checks injectBreakerTrips makes before it touches a trace, with
 * the same errors: the population matches the plan's shape and the
 * assignment covers it.  Returns whether the plan schedules a breaker
 * trip at all; when it does not, injectBreakerTrips leaves the traces
 * as they are and returns an empty report, so a caller can skip the
 * copy it would degrade.
 */
bool checkBreakerTrips(const std::vector<trace::TimeSeries> &traces,
                       const power::Assignment &assignment,
                       const FaultPlan &plan);

} // namespace sosim::fault

#endif // SOSIM_FAULT_INJECT_H

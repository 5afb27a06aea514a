#include "inject.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "util/error.h"

namespace sosim::fault {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void
requireShape(const std::vector<trace::TimeSeries> &traces,
             const FaultPlan &plan, const char *what)
{
    // A plan built for the wildcard shape {0, 0} schedules no events
    // and composes with a population of any shape — the pipeline feeds
    // its always-wired inject node such a plan when unfaulted, so
    // what-if overlays may swap in differently-shaped populations.  A
    // plan built for a concrete shape still validates even if it
    // happened to schedule nothing.
    if (plan.shape().instances == 0 && plan.shape().samplesPerTrace == 0)
        return;
    SOSIM_REQUIRE(traces.size() == plan.shape().instances, what);
    for (const auto &t : traces)
        SOSIM_REQUIRE(t.size() == plan.shape().samplesPerTrace, what);
}

} // namespace

InjectionReport
injectTraceFaults(std::vector<trace::TimeSeries> &traces,
                  const FaultPlan &plan)
{
    SOSIM_SPAN("fault.inject_traces");
    checkTraceFaults(traces, plan);
    InjectionReport report;
    const std::size_t n = plan.shape().samplesPerTrace;
    const auto row = [&](std::size_t i) { return traces[i].data(); };

    // fingerprint() walks the whole plan, so it is hashed once per pass
    // and only when the recorder is live — recomputing it per injected
    // fault would make event emission O(plan) each and the instrumented
    // run quadratic in the fault count.
    const bool recording = obs::EventRecorder::instance().enabled();
    const std::uint64_t plan_fp = recording ? plan.fingerprint() : 0;

    // 1. Clock skew: rotate the week (the lost tail wraps around, which
    // is the right model for periodic weekly traces).
    for (const auto &skew : plan.clockSkews()) {
        double *ts = row(skew.instance);
        const auto len = static_cast<long>(n);
        long shift = skew.offsetSamples % len;
        if (shift < 0)
            shift += len;
        if (shift == 0)
            continue;
        std::vector<double> rotated(n);
        for (long i = 0; i < len; ++i)
            rotated[static_cast<std::size_t>((i + shift) % len)] =
                ts[static_cast<std::size_t>(i)];
        std::copy(rotated.begin(), rotated.end(), ts);
        ++report.tracesSkewed;
        SOSIM_EVENT(.kind = obs::EventKind::FaultInject,
                    .code = static_cast<std::uint32_t>(
                        obs::FaultEventCode::ClockSkew),
                    .a = skew.instance,
                    .b = static_cast<std::uint64_t>(skew.offsetSamples),
                    .d = plan_fp);
    }

    // Stuck windows and gaps are the high-volume fault classes (a
    // harsh plan schedules tens of thousands), so their events are
    // coalesced to one per touched instance per application: the
    // monitor acts on per-instance validity, not individual gaps, and
    // per-gap journal rows would dominate the recorder's overhead
    // budget and drown `sosim explain` in repetition.  Tally slot 0
    // counts faults, slot 1 counts affected samples.
    std::vector<std::array<std::uint64_t, 2>> stuck_tally;
    std::vector<std::array<std::uint64_t, 2>> gap_tally;
    if (recording) {
        stuck_tally.assign(plan.shape().instances, {0, 0});
        gap_tally.assign(plan.shape().instances, {0, 0});
    }

    // 2. Stuck-at windows: the reading at the window start repeats.
    for (const auto &stuck : plan.stuckSensors()) {
        double *ts = row(stuck.instance);
        if (stuck.length == 0)
            continue;
        const double held = ts[stuck.firstSample];
        for (std::size_t i = 1; i < stuck.length; ++i)
            ts[stuck.firstSample + i] = held;
        report.samplesStuck += stuck.length - 1;
        if (recording) {
            ++stuck_tally[stuck.instance][0];
            stuck_tally[stuck.instance][1] += stuck.length - 1;
        }
    }

    // 3. Dropout gaps to NaN (already-NaN samples are not recounted, so
    // overlapping gaps report the true damage).
    for (const auto &gap : plan.gaps()) {
        double *ts = row(gap.instance);
        std::uint64_t dropped = 0;
        for (std::size_t i = 0; i < gap.length; ++i) {
            double &sample = ts[gap.firstSample + i];
            if (!std::isnan(sample)) {
                sample = kNaN;
                ++dropped;
            }
        }
        report.samplesDropped += dropped;
        if (recording) {
            ++gap_tally[gap.instance][0];
            gap_tally[gap.instance][1] += dropped;
        }
    }

    for (std::size_t i = 0; i < stuck_tally.size(); ++i)
        if (stuck_tally[i][0] > 0)
            SOSIM_EVENT(.kind = obs::EventKind::FaultInject,
                        .code = static_cast<std::uint32_t>(
                            obs::FaultEventCode::StuckSensor),
                        .a = i, .b = stuck_tally[i][0],
                        .c = stuck_tally[i][1], .d = plan_fp);
    for (std::size_t i = 0; i < gap_tally.size(); ++i)
        if (gap_tally[i][0] > 0)
            SOSIM_EVENT(.kind = obs::EventKind::FaultInject,
                        .code = static_cast<std::uint32_t>(
                            obs::FaultEventCode::Gap),
                        .a = i, .b = gap_tally[i][0],
                        .c = gap_tally[i][1], .d = plan_fp);

    // 4. Whole-trace losses.
    for (const auto &loss : plan.traceLosses()) {
        double *ts = row(loss.instance);
        for (std::size_t i = 0; i < n; ++i) {
            if (!std::isnan(ts[i])) {
                ts[i] = kNaN;
                ++report.samplesDropped;
            }
        }
        ++report.tracesLost;
        SOSIM_EVENT(.kind = obs::EventKind::FaultInject,
                    .code = static_cast<std::uint32_t>(
                        obs::FaultEventCode::TraceLoss),
                    .a = loss.instance, .d = plan_fp);
    }

    SOSIM_COUNT_ADD("fault.samples_dropped", report.samplesDropped);
    SOSIM_COUNT_ADD("fault.samples_stuck", report.samplesStuck);
    SOSIM_COUNT_ADD("fault.traces_lost", report.tracesLost);
    SOSIM_COUNT_ADD("fault.traces_skewed", report.tracesSkewed);
    return report;
}

InjectedTraces
injectedCopy(std::vector<trace::TimeSeries> traces, const FaultPlan &plan)
{
    InjectedTraces out;
    out.report = injectTraceFaults(traces, plan);
    out.traces = std::move(traces);
    return out;
}

bool
checkTraceFaults(const std::vector<trace::TimeSeries> &traces,
                 const FaultPlan &plan)
{
    requireShape(traces, plan,
                 "injectTraceFaults: traces do not match the plan shape");
    return !plan.gaps().empty() || !plan.stuckSensors().empty() ||
           !plan.clockSkews().empty() || !plan.traceLosses().empty();
}

bool
checkBreakerTrips(const std::vector<trace::TimeSeries> &traces,
                  const power::Assignment &assignment, const FaultPlan &plan)
{
    requireShape(traces, plan,
                 "injectBreakerTrips: traces do not match the plan shape");
    SOSIM_REQUIRE(assignment.size() == traces.size(),
                  "injectBreakerTrips: assignment does not cover the "
                  "trace population");
    return !plan.powerEvents().empty();
}

InjectionReport
injectBreakerTrips(std::vector<trace::TimeSeries> &traces,
                   const power::PowerTree &tree,
                   const power::Assignment &assignment,
                   const FaultPlan &plan)
{
    SOSIM_SPAN("fault.inject_breaker_trips");
    checkBreakerTrips(traces, assignment, plan);
    InjectionReport report;
    // Trips target racks that actually serve load: resolving the
    // ordinal over occupied racks only keeps sparse topologies (few
    // instances, many racks) from wasting every trip on an empty rack.
    std::vector<power::NodeId> occupied;
    for (const auto rack : tree.racks())
        if (std::find(assignment.begin(), assignment.end(), rack) !=
            assignment.end())
            occupied.push_back(rack);
    if (occupied.empty())
        return report;
    // Hashed once, not per trip — see injectTraceFaults.
    const std::uint64_t plan_fp =
        obs::EventRecorder::instance().enabled() ? plan.fingerprint() : 0;
    std::vector<bool> hit(traces.size(), false);
    for (const auto &event : plan.powerEvents()) {
        const power::NodeId rack =
            occupied[event.nodeOrdinal % occupied.size()];
        SOSIM_EVENT(.kind = obs::EventKind::FaultInject,
                    .code = static_cast<std::uint32_t>(
                        obs::FaultEventCode::BreakerTrip),
                    .a = rack, .b = event.atSample,
                    .c = event.durationSamples,
                    .d = plan_fp);
        for (std::size_t i = 0; i < assignment.size(); ++i) {
            if (assignment[i] != rack)
                continue;
            auto &ts = traces[i];
            for (std::size_t s = 0; s < event.durationSamples; ++s)
                ts[event.atSample + s] = 0.0;
            report.blackoutSamples += event.durationSamples;
            if (!hit[i]) {
                hit[i] = true;
                ++report.instancesBlackedOut;
            }
        }
    }
    SOSIM_COUNT_ADD("fault.blackout_samples", report.blackoutSamples);
    SOSIM_COUNT_ADD("fault.instances_blacked_out",
                    report.instancesBlackedOut);
    return report;
}

} // namespace sosim::fault

#include "repair.h"

#include <cmath>

#include "obs/obs.h"
#include "util/error.h"

namespace sosim::trace {

std::string
repairPolicyName(RepairPolicy policy)
{
    switch (policy) {
      case RepairPolicy::None:
        return "none";
      case RepairPolicy::HoldLast:
        return "hold_last";
      case RepairPolicy::Interpolate:
        return "interpolate";
    }
    return "?";
}

RepairPolicy
repairPolicyFromName(const std::string &name)
{
    if (name == "none")
        return RepairPolicy::None;
    if (name == "hold_last")
        return RepairPolicy::HoldLast;
    if (name == "interpolate")
        return RepairPolicy::Interpolate;
    SOSIM_REQUIRE(false, "unknown repair policy '" + name +
                             "' (none|hold_last|interpolate)");
}

double
validFraction(TraceView v)
{
    if (v.empty())
        return 1.0;
    // Blocked finite-count: exact (integer lanes), ~4x the scan rate of
    // the sequential isfinite loop it replaces.
    return static_cast<double>(countValid(v)) /
           static_cast<double>(v.size());
}

RepairResult
repairSpan(double *samples, std::size_t n, RepairPolicy policy)
{
    RepairResult result;
    if (n == 0)
        return result;

    const std::size_t invalid = n - countValid(TraceView(samples, n, 1));
    result.validBefore =
        static_cast<double>(n - invalid) / static_cast<double>(n);
    if (invalid == 0 || policy == RepairPolicy::None)
        return result;

    if (invalid == n) {
        // Nothing to extrapolate from: zero-fill and flag.
        for (std::size_t i = 0; i < n; ++i)
            samples[i] = 0.0;
        result.samplesRepaired = n;
        result.unrepairable = true;
        return result;
    }

    // Walk the gaps.  `prev` is the index of the last valid sample seen
    // (npos while inside a leading gap).
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t prev = npos;
    std::size_t i = 0;
    while (i < n) {
        if (std::isfinite(samples[i])) {
            prev = i++;
            continue;
        }
        std::size_t end = i; // One past the gap's last sample.
        while (end < n && !std::isfinite(samples[end]))
            ++end;
        const std::size_t next = end < n ? end : npos;

        for (std::size_t g = i; g < end; ++g) {
            double fill;
            if (prev == npos) {
                fill = samples[next]; // Leading gap: back-fill.
            } else if (next == npos) {
                fill = samples[prev]; // Trailing gap: hold.
            } else if (policy == RepairPolicy::HoldLast) {
                fill = samples[prev];
            } else { // Interpolate.
                const double t =
                    static_cast<double>(g - prev) /
                    static_cast<double>(next - prev);
                fill = samples[prev] + t * (samples[next] - samples[prev]);
            }
            samples[g] = fill;
        }
        result.samplesRepaired += end - i;
        i = end;
    }
    return result;
}

RepairResult
repairSeries(TimeSeries &ts, RepairPolicy policy)
{
    if (ts.empty())
        return {};
    // The mutable element access invalidates the series' stats cache.
    return repairSpan(&ts[0], ts.size(), policy);
}

double
RepairSummary::meanValidFraction() const
{
    if (validBefore.empty())
        return 1.0;
    double sum = 0.0;
    for (const double v : validBefore)
        sum += v;
    return sum / static_cast<double>(validBefore.size());
}

RepairSummary
repairAll(std::vector<TimeSeries> &traces, RepairPolicy policy)
{
    SOSIM_SPAN("trace.repair_all");
    RepairSummary summary;
    summary.validBefore.reserve(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
        const auto r = repairSeries(traces[i], policy);
        summary.validBefore.push_back(r.validBefore);
        if (r.validBefore < 1.0)
            ++summary.tracesDegraded;
        summary.samplesRepaired += r.samplesRepaired;
        if (r.unrepairable)
            ++summary.tracesUnrepairable;
        SOSIM_OBSERVE("trace.repair.valid_fraction", r.validBefore);
        if (r.samplesRepaired > 0)
            SOSIM_EVENT(.kind = obs::EventKind::FaultRepair, .a = i,
                        .b = r.samplesRepaired);
    }
    SOSIM_COUNT_ADD("trace.repair.samples_repaired",
                    summary.samplesRepaired);
    SOSIM_COUNT_ADD("trace.repair.traces_degraded",
                    summary.tracesDegraded);
    SOSIM_COUNT_ADD("trace.repair.traces_unrepairable",
                    summary.tracesUnrepairable);
    return summary;
}

RepairedTraces
repairedCopy(std::vector<TimeSeries> traces, RepairPolicy policy)
{
    RepairedTraces out;
    out.summary = repairAll(traces, policy);
    out.traces = std::move(traces);
    return out;
}

} // namespace sosim::trace

#include "monitor.h"

#include <algorithm>
#include <chrono>

#include "obs/obs.h"
#include "trace/arena.h"
#include "util/error.h"

namespace sosim::core {

std::string
monitorActionName(MonitorAction action)
{
    switch (action) {
      case MonitorAction::None:
        return "none";
      case MonitorAction::Remap:
        return "remap";
      case MonitorAction::Replace:
        return "replace";
    }
    return "?";
}

FragmentationMonitor::FragmentationMonitor(const power::PowerTree &tree,
                                           MonitorConfig config)
    : tree_(tree), config_(config)
{
    SOSIM_REQUIRE(config.baselineWindowWeeks >= 1,
                  "FragmentationMonitor: window must be >= 1 week");
    SOSIM_REQUIRE(config.remapThreshold >= 0.0 &&
                      config.replaceThreshold >= config.remapThreshold,
                  "FragmentationMonitor: thresholds must satisfy "
                  "0 <= remap <= replace");
    SOSIM_REQUIRE(config.level != power::Level::Datacenter,
                  "FragmentationMonitor: the DC level is placement-"
                  "invariant; watch a lower level");
    SOSIM_REQUIRE(config.minValidFraction >= 0.0 &&
                      config.minValidFraction <= 1.0,
                  "FragmentationMonitor: minValidFraction must be in "
                  "[0, 1]");
    SOSIM_REQUIRE(config.degradedThresholdFactor >= 1.0,
                  "FragmentationMonitor: degradedThresholdFactor must "
                  "be >= 1");
}

MonitorMeasurement
measureWeek(const power::PowerTree &tree, const MonitorConfig &config,
            const std::vector<trace::TimeSeries> &itraces,
            const power::Assignment &assignment,
            const cluster::ShapeIndex *training)
{
    MonitorMeasurement m;

    // Shape-drift diagnostic against the shared training index: embeds
    // the week the same way the index embedded the training population.
    // Degraded weeks embed their repaired rows (filled below), so the
    // drift reflects workload change, not sensor gaps.
    const bool want_drift = training != nullptr && !training->empty();
    const auto driftOf = [&](const std::vector<const double *> &rows,
                             std::size_t samples) {
        return cluster::ShapeIndex::build(rows, samples,
                                          training->buckets())
            .meanDriftFrom(*training);
    };

    // Validity sweep: one pass per trace.  Fully valid weeks take the
    // zero-copy path below; anything with gaps is repaired into a copy.
    double valid_sum = 0.0;
    bool any_gap = false;
    std::vector<double> validity(itraces.size(), 1.0);
    for (std::size_t i = 0; i < itraces.size(); ++i) {
        validity[i] = trace::validFraction(itraces[i]);
        valid_sum += validity[i];
        any_gap = any_gap || validity[i] < 1.0;
    }
    m.validFraction = itraces.empty()
                          ? 1.0
                          : valid_sum /
                                static_cast<double>(itraces.size());

    std::vector<trace::TimeSeries> node_traces;
    if (any_gap) {
        m.degradedData = true;
        // Repair into an arena copy of the week (the caller's traces are
        // never mutated): one contiguous allocation instead of a cloned
        // vector of series, and the aggregation reads the rows directly.
        trace::TraceArena repaired =
            trace::TraceArena::fromSeries(itraces);
        for (std::size_t i = 0; i < repaired.size(); ++i) {
            if (validity[i] >= 1.0)
                continue;
            double *row = repaired.mutableRow(i);
            if (validity[i] < config.minValidFraction) {
                // Mostly fabricated: contribute nothing rather than a
                // guess (the zeros keep aggregateTraces' shape intact).
                std::fill(row, row + repaired.samplesPerTrace(), 0.0);
                ++m.excludedInstances;
                SOSIM_EVENT(.kind = obs::EventKind::MonitorExclude,
                            .a = i, .x = validity[i]);
                continue;
            }
            const auto r =
                trace::repairSpan(row, repaired.samplesPerTrace(),
                                  config.repairPolicy);
            m.repairedSamples += r.samplesRepaired;
            if (r.samplesRepaired > 0)
                SOSIM_EVENT(.kind = obs::EventKind::FaultRepair,
                            .a = i, .b = r.samplesRepaired);
        }
        if (want_drift) {
            std::vector<const double *> rows(repaired.size());
            for (trace::TraceId id = 0; id < repaired.size(); ++id)
                rows[id] = repaired.row(id);
            m.shapeDrift = driftOf(rows, repaired.samplesPerTrace());
        }
        std::vector<trace::TraceView> views;
        views.reserve(repaired.size());
        for (trace::TraceId id = 0; id < repaired.size(); ++id)
            views.push_back(repaired.view(id));
        node_traces = tree.aggregateTraces(views, assignment);
    } else {
        if (want_drift && !itraces.empty()) {
            std::vector<const double *> rows(itraces.size());
            for (std::size_t i = 0; i < itraces.size(); ++i)
                rows[i] = itraces[i].samples().data();
            m.shapeDrift =
                driftOf(rows, itraces.front().samples().size());
        }
        node_traces = tree.aggregateTraces(itraces, assignment);
    }
    m.sumOfPeaks = tree.sumOfPeaks(node_traces, config.level);
    m.rootPeak = node_traces[tree.root()].peak();
    if (m.rootPeak <= 0.0) {
        // No powered instance — e.g. every one excluded while a serving
        // window is still mostly unfilled.  The ratio is undefined: report
        // the zero-power sentinel of core/asynchrony.h, flagged degraded
        // so it never enters the baseline window.  ingest() then judges
        // it None: 0.0 sits below any (positive) baseline.
        m.degradedData = true;
        m.fragmentationRatio = 0.0;
        return m;
    }
    m.fragmentationRatio = m.sumOfPeaks / m.rootPeak;
    return m;
}

MonitorObservation
FragmentationMonitor::observeWeek(
    const std::vector<trace::TimeSeries> &itraces,
    const power::Assignment &assignment)
{
    SOSIM_SPAN("monitor.observe_week");
    const auto t0 = std::chrono::steady_clock::now();
    const auto m = measureWeek(tree_, config_, itraces, assignment);
    const double eval_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return ingest(m, eval_seconds);
}

MonitorObservation
FragmentationMonitor::ingest(const MonitorMeasurement &m,
                             double eval_seconds)
{
    MonitorObservation obs;
    obs.week = weekCounter_++;
    obs.sumOfPeaks = m.sumOfPeaks;
    obs.rootPeak = m.rootPeak;
    obs.fragmentationRatio = m.fragmentationRatio;
    obs.degradedData = m.degradedData;
    obs.validFraction = m.validFraction;
    obs.repairedSamples = m.repairedSamples;
    obs.excludedInstances = m.excludedInstances;
    obs.shapeDrift = m.shapeDrift;

    // Degraded weeks face widened thresholds: repaired samples can
    // fabricate fragmentation, so demand a proportionally larger margin
    // before recommending churn.
    const double widen =
        obs.degradedData ? config_.degradedThresholdFactor : 1.0;
    if (window_.empty()) {
        obs.action = MonitorAction::None;
    } else {
        const double baseline =
            *std::min_element(window_.begin(), window_.end());
        const double degradation =
            obs.fragmentationRatio / baseline - 1.0;
        if (degradation >= config_.replaceThreshold * widen)
            obs.action = MonitorAction::Replace;
        else if (degradation >= config_.remapThreshold * widen)
            obs.action = MonitorAction::Remap;
        else
            obs.action = MonitorAction::None;
    }

    // Only healthy ratios feed the baseline window: a ratio computed
    // from fabricated samples must not become the bar that future
    // healthy weeks are judged against.
    if (!obs.degradedData) {
        window_.push_back(obs.fragmentationRatio);
        while (window_.size() > config_.baselineWindowWeeks)
            window_.pop_front();
    }

    obs.evalSeconds = eval_seconds;
    SOSIM_COUNT("monitor.observations");
#if SOSIM_OBS_ENABLED
    // Dynamic name — the macro's static-reference cache would pin the
    // first action seen, so go through the registry directly.
    sosim::obs::registry()
        .counter("monitor.action." + monitorActionName(obs.action))
        .inc();
#endif
    if (obs.degradedData) {
        SOSIM_COUNT("monitor.degraded_observations");
        SOSIM_COUNT_ADD("monitor.repaired_samples", obs.repairedSamples);
        SOSIM_COUNT_ADD("monitor.excluded_instances",
                        obs.excludedInstances);
    }
    SOSIM_GAUGE_SET("monitor.valid_fraction", obs.validFraction);
    SOSIM_GAUGE_SET("monitor.sum_of_peaks", obs.sumOfPeaks);
    SOSIM_GAUGE_SET("monitor.root_peak", obs.rootPeak);
    SOSIM_GAUGE_SET("monitor.fragmentation_ratio", obs.fragmentationRatio);
    SOSIM_GAUGE_SET("monitor.shape_drift", obs.shapeDrift);
    SOSIM_OBSERVE("monitor.observe_seconds", obs.evalSeconds);
    // Fully qualified: the local `obs` observation shadows the
    // namespace here.
    SOSIM_EVENT(.kind = ::sosim::obs::EventKind::MonitorWeek,
                .code = obs.degradedData ? 1U : 0U,
                .label = monitorActionName(obs.action), .a = obs.week,
                .b = static_cast<std::uint64_t>(obs.action),
                .c = obs.excludedInstances, .d = obs.repairedSamples,
                .x = obs.fragmentationRatio, .y = obs.validFraction,
                .z = widen);

    history_.push_back(obs);
    return obs;
}

void
FragmentationMonitor::placementUpdated()
{
    window_.clear();
}

FragmentationMonitor::BaselineState
FragmentationMonitor::baselineState() const
{
    BaselineState state;
    state.window.assign(window_.begin(), window_.end());
    state.weekCounter = weekCounter_;
    return state;
}

void
FragmentationMonitor::restoreBaselineState(const BaselineState &state)
{
    window_.assign(state.window.begin(), state.window.end());
    weekCounter_ = state.weekCounter;
}

} // namespace sosim::core

#include "monitor.h"

#include <algorithm>
#include <chrono>

#include "obs/obs.h"
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
}

namespace {

/** The one measureWeek body.  `owned`, when supplied, is the week
 *  `itraces` names, and its gapped rows are repaired in place. */
MonitorMeasurement
measure(const power::PowerTree &tree, const MonitorConfig &config,
        const std::vector<trace::TimeSeries> &itraces, OwnedWeek *owned,
        const power::Assignment &assignment,
        const cluster::ShapeIndex *training)
{
    MonitorMeasurement m;

    // Validity sweep: one pass per trace.
    double valid_sum = 0.0;
    std::vector<double> validity(itraces.size());
    for (std::size_t i = 0; i < itraces.size(); ++i) {
        validity[i] = trace::validFraction(itraces[i]);
        valid_sum += validity[i];
        m.degradedData = m.degradedData || validity[i] < 1.0;
    }
    m.validFraction = itraces.empty()
                          ? 1.0
                          : valid_sum /
                                static_cast<double>(itraces.size());

    // A borrowed week with a gap is copied once, an owned one not, and
    // every gapped row is repaired in place, those below the floor too,
    // so the rows become trace::repairedCopy's.
    std::vector<trace::TimeSeries> copy;
    if (m.degradedData && owned == nullptr)
        copy = itraces;
    auto &gapped = owned != nullptr ? owned->traces : copy;
    for (std::size_t i = 0; m.degradedData && i < gapped.size(); ++i) {
        if (validity[i] >= 1.0)
            continue;
        const auto r = trace::repairSeries(gapped[i], kMonitorRepairPolicy);
        if (validity[i] < trace::kMinValidFraction) {
            ++m.excludedInstances;
            SOSIM_EVENT(.kind = obs::EventKind::MonitorExclude,
                        .a = i, .x = validity[i]);
        } else {
            m.repairedSamples += r.samplesRepaired;
            if (r.samplesRepaired > 0)
                SOSIM_EVENT(.kind = obs::EventKind::FaultRepair,
                            .a = i, .b = r.samplesRepaired);
        }
    }

    // One row per instance feeds the aggregation and the drift
    // embedding: the week's row, repaired if it had a gap, or a shared
    // zero row for an instance below the floor — mostly fabricated, it
    // contributes nothing rather than a guess.  aggregateTraces refuses
    // a misaligned week before it reads a row.
    const auto &week = m.degradedData ? gapped : itraces;
    std::vector<trace::TraceView> rows(week.begin(), week.end());
    const std::vector<double> zeros(
        m.excludedInstances > 0 ? week.front().size() : 0, 0.0);
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (validity[i] < trace::kMinValidFraction)
            rows[i] = trace::TraceView(zeros.data(), week[i].size(),
                                       week[i].intervalMinutes());
    const auto node_traces = tree.aggregateTraces(rows, assignment);

    // Shape-drift diagnostic against the shared training index: embeds
    // the week the same way the index embedded the training population.
    if (training != nullptr && !training->empty()) {
        std::vector<const double *> starts;
        for (const trace::TraceView &row : rows)
            starts.push_back(row.data());
        const auto week_index = cluster::ShapeIndex::build(
            starts, rows.front().size(), training->buckets());
        m.shapeDrift = week_index.meanDriftFrom(*training);
    }

    if (owned != nullptr) {
        if (!m.degradedData)
            validity.clear();
        owned->validBefore = std::move(validity);
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

} // namespace

MonitorMeasurement
measureWeek(const power::PowerTree &tree, const MonitorConfig &config,
            const std::vector<trace::TimeSeries> &itraces,
            const power::Assignment &assignment,
            const cluster::ShapeIndex *training)
{
    return measure(tree, config, itraces, nullptr, assignment, training);
}

MonitorMeasurement
measureWeek(const power::PowerTree &tree, const MonitorConfig &config,
            OwnedWeek &week, const power::Assignment &assignment,
            const cluster::ShapeIndex *training)
{
    return measure(tree, config, week.traces, &week, assignment, training);
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
    MonitorObservation obs{m};
    obs.week = weekCounter_++;

    // Degraded weeks face widened thresholds: repaired samples can
    // fabricate fragmentation, so demand a proportionally larger margin
    // before recommending churn.
    const double widen =
        obs.degradedData ? kDegradedThresholdFactor : 1.0;
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
    // Dynamic name — the macro's static-reference cache would pin the
    // first action seen, so go through the registry directly.
    sosim::obs::registry()
        .counter("monitor.action." + monitorActionName(obs.action))
        .inc();
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

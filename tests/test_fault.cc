/**
 * @file
 * Tests for the deterministic fault-injection layer (src/fault), the
 * trace repair policies (src/trace/repair.h), the gap-aware kernels,
 * and the graceful-degradation paths threaded through core::monitor and
 * core::remap.  The end-to-end case pins the PR's acceptance criterion:
 * the full pipeline completes at 5% sample loss plus a breaker trip,
 * with the degraded-data metrics visible in the obs registry.
 */

#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "core/headroom.h"
#include "core/monitor.h"
#include "core/placement.h"
#include "core/remap.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "mutate_lines.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "power/power_tree.h"
#include "trace/kernels.h"
#include "trace/repair.h"
#include "trace/time_series.h"
#include "util/error.h"
#include "workload/catalog.h"
#include "workload/generator.h"

namespace {

using namespace sosim;
using trace::TimeSeries;
using util::FatalError;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------
// FaultPlan: determinism and schedule shape.

TEST(FaultPlan, IdenticalInputsGiveByteIdenticalSchedules)
{
    const auto profile = fault::faultProfile("harsh");
    const fault::TraceShape shape{100, 336};
    const auto a = fault::FaultPlan::build(7, profile, shape);
    const auto b = fault::FaultPlan::build(7, profile, shape);

    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    ASSERT_EQ(a.gaps().size(), b.gaps().size());
    for (std::size_t i = 0; i < a.gaps().size(); ++i) {
        EXPECT_EQ(a.gaps()[i].instance, b.gaps()[i].instance);
        EXPECT_EQ(a.gaps()[i].firstSample, b.gaps()[i].firstSample);
        EXPECT_EQ(a.gaps()[i].length, b.gaps()[i].length);
    }
    ASSERT_EQ(a.powerEvents().size(), b.powerEvents().size());
    for (std::size_t i = 0; i < a.powerEvents().size(); ++i) {
        EXPECT_EQ(a.powerEvents()[i].nodeOrdinal,
                  b.powerEvents()[i].nodeOrdinal);
        EXPECT_EQ(a.powerEvents()[i].atSample,
                  b.powerEvents()[i].atSample);
    }
}

TEST(FaultPlan, SeedAndProfileChangeTheSchedule)
{
    const fault::TraceShape shape{100, 336};
    const auto harsh7 =
        fault::FaultPlan::build(7, fault::faultProfile("harsh"), shape);
    const auto harsh8 =
        fault::FaultPlan::build(8, fault::faultProfile("harsh"), shape);
    const auto mild7 =
        fault::FaultPlan::build(7, fault::faultProfile("mild"), shape);
    EXPECT_NE(harsh7.fingerprint(), harsh8.fingerprint());
    EXPECT_NE(harsh7.fingerprint(), mild7.fingerprint());
}

TEST(FaultPlan, QuotaRoughlyMatchesLossRate)
{
    const auto profile = fault::faultProfile("harsh"); // 5% loss.
    const fault::TraceShape shape{200, 336};
    const auto plan = fault::FaultPlan::build(3, profile, shape);
    const double total =
        static_cast<double>(shape.instances * shape.samplesPerTrace);
    const double scheduled =
        static_cast<double>(plan.scheduledGapSamples());
    EXPECT_GE(scheduled / total, 0.05);
    EXPECT_LE(scheduled / total, 0.06); // Quota + at most one extra gap.
    EXPECT_EQ(plan.powerEvents().size(), 2u); // One trip + one derate.
}

TEST(FaultPlan, NoneProfileSchedulesNothing)
{
    const auto plan = fault::FaultPlan::build(
        7, fault::faultProfile("none"), {50, 100});
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(plan.scheduledGapSamples(), 0u);
}

TEST(FaultPlan, SpecParsing)
{
    const auto parse = [](const std::string &text) {
        return fault::parseFaultPlanSpec(text, "--fault-plan");
    };
    const auto bare = parse("42");
    EXPECT_EQ(bare.seed, 42u);
    EXPECT_EQ(bare.profile, "harsh");
    const auto full = parse("7:mild");
    EXPECT_EQ(full.seed, 7u);
    EXPECT_EQ(full.profile, "mild");
    EXPECT_THROW(parse(""), FatalError);
    EXPECT_THROW(parse("abc"), FatalError);
    EXPECT_THROW(parse("-1:mild"), FatalError);
    EXPECT_THROW(parse("7x:mild"), FatalError);
    EXPECT_THROW(parse("7:bogus"), FatalError);
    EXPECT_THROW(fault::faultProfile("bogus"), FatalError);
}

TEST(FaultPlan, MutatedSpecIsAcceptedOrRefusedCleanly)
{
    std::mt19937_64 rng(20261020);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const std::vector<std::string> seedEdits = {
        "-", "+", ".", " ", "x", "0x", ":", "9", "99999999999999999999",
        "18446744073709551616"};
    const char *profiles[] = {"none", "mild", "harsh", "HARSH",
                              "bogus", "", "harsh:mild", " mild"};
    // Replace the profile, or drop it.
    const auto editProfile = [&](std::vector<std::string> &,
                                 std::string &line) {
        const std::size_t colon = line.find(':');
        const std::string seed = line.substr(0, colon);
        const std::size_t p = pick(9);
        line = p == 8 ? seed : seed + ":" + profiles[p];
    };

    std::size_t accepted = 0;
    std::size_t refused = 0;
    for (int iter = 0; iter < 1000; ++iter) {
        std::string text = fuzz::mutateLines({"7:harsh"}, pick, seedEdits,
                                             editProfile);
        text.pop_back(); // The spec is one line, without its newline.
        try {
            const auto spec = fault::parseFaultPlanSpec(text, "--fault-plan");
            ++accepted;
            EXPECT_NO_THROW(fault::faultProfile(spec.profile)) << text;
        } catch (const FatalError &e) {
            ++refused;
            const std::string what = e.what();
            EXPECT_NE(what.find("--fault-plan"), std::string::npos) << what;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "unexpected exception: " << e.what() << "\n"
                          << text;
        }
    }
    // The mutations must exercise both outcomes.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(refused, 0u);
}

// ---------------------------------------------------------------------
// Injection semantics.

TEST(Inject, GapsDropSamplesAtTheScheduledRate)
{
    const auto profile = fault::faultProfile("harsh");
    const fault::TraceShape shape{60, 336};
    const auto plan = fault::FaultPlan::build(11, profile, shape);
    std::vector<TimeSeries> traces(
        shape.instances, TimeSeries::constant(shape.samplesPerTrace, 1.0));
    const auto report = fault::injectTraceFaults(traces, plan);

    EXPECT_GT(report.samplesDropped, 0u);
    // Overlaps can only lower the realized count below the schedule.
    EXPECT_LE(report.samplesDropped,
              plan.scheduledGapSamples() +
                  report.tracesLost * shape.samplesPerTrace);
    std::size_t nans = 0;
    for (const auto &t : traces)
        for (std::size_t i = 0; i < t.size(); ++i)
            if (std::isnan(t[i]))
                ++nans;
    EXPECT_EQ(nans, report.samplesDropped);
}

TEST(Inject, StuckWindowRepeatsTheFirstReading)
{
    fault::FaultProfile profile;
    profile.stuckSensorRate = 1.0; // Every instance gets one window.
    const auto plan = fault::FaultPlan::build(5, profile, {3, 50});
    std::vector<TimeSeries> traces;
    for (std::size_t i = 0; i < 3; ++i) {
        std::vector<double> ramp(50);
        for (std::size_t s = 0; s < 50; ++s)
            ramp[s] = static_cast<double>(s);
        traces.emplace_back(std::move(ramp), 1);
    }
    const auto report = fault::injectTraceFaults(traces, plan);
    ASSERT_EQ(plan.stuckSensors().size(), 3u);
    EXPECT_GT(report.samplesStuck, 0u);
    for (const auto &stuck : plan.stuckSensors()) {
        const auto &t = traces[stuck.instance];
        for (std::size_t i = 0; i < stuck.length; ++i)
            EXPECT_EQ(t[stuck.firstSample + i],
                      static_cast<double>(stuck.firstSample));
    }
}

TEST(Inject, ClockSkewRotatesWithoutLosingSamples)
{
    fault::FaultProfile profile;
    profile.clockSkewRate = 1.0;
    const auto plan = fault::FaultPlan::build(9, profile, {4, 30});
    ASSERT_FALSE(plan.clockSkews().empty());
    for (const auto &skew : plan.clockSkews()) {
        EXPECT_NE(skew.offsetSamples, 0);
        EXPECT_LE(std::abs(skew.offsetSamples), fault::kMaxSkewSamples);
    }
    std::vector<TimeSeries> traces;
    for (std::size_t i = 0; i < 4; ++i) {
        std::vector<double> ramp(30);
        for (std::size_t s = 0; s < 30; ++s)
            ramp[s] = static_cast<double>(s);
        traces.emplace_back(std::move(ramp), 1);
    }
    fault::injectTraceFaults(traces, plan);
    for (const auto &skew : plan.clockSkews()) {
        const auto &t = traces[skew.instance];
        // Rotation preserves the multiset of samples.
        EXPECT_DOUBLE_EQ(t.sum(), 29.0 * 30.0 / 2.0);
        EXPECT_DOUBLE_EQ(t.peak(), 29.0);
    }
}

TEST(Inject, TraceLossErasesTheWholeInstance)
{
    fault::FaultProfile profile;
    profile.traceLossRate = 1.0;
    const auto plan = fault::FaultPlan::build(2, profile, {2, 20});
    std::vector<TimeSeries> traces(2, TimeSeries::constant(20, 0.5));
    const auto report = fault::injectTraceFaults(traces, plan);
    EXPECT_EQ(report.tracesLost, 2u);
    EXPECT_EQ(report.samplesDropped, 40u);
    for (const auto &t : traces)
        for (std::size_t i = 0; i < t.size(); ++i)
            EXPECT_TRUE(std::isnan(t[i]));
}

TEST(Inject, ShapeMismatchIsFatal)
{
    const auto plan = fault::FaultPlan::build(
        1, fault::faultProfile("mild"), {2, 20});
    std::vector<TimeSeries> wrong_count(1, TimeSeries::constant(20, 1.0));
    EXPECT_THROW(fault::injectTraceFaults(wrong_count, plan), FatalError);
    std::vector<TimeSeries> wrong_len(2, TimeSeries::constant(19, 1.0));
    EXPECT_THROW(fault::injectTraceFaults(wrong_len, plan), FatalError);
}

TEST(Inject, BreakerTripBlacksOutTheOccupiedRack)
{
    power::TopologySpec topo;
    topo.suites = 1;
    topo.msbsPerSuite = 1;
    topo.sbsPerMsb = 1;
    topo.rppsPerSb = 2;
    topo.racksPerRpp = 1;
    power::PowerTree tree(topo);

    fault::FaultProfile profile;
    profile.breakerTrips = 1;
    const auto plan = fault::FaultPlan::build(3, profile, {3, 40});
    std::vector<TimeSeries> traces(3, TimeSeries::constant(40, 1.0));
    // All instances on rack 0; rack 1 stays empty, so the trip must
    // resolve onto rack 0 regardless of the scheduled ordinal.
    power::Assignment assignment(3, tree.racks()[0]);
    const auto report =
        fault::injectBreakerTrips(traces, tree, assignment, plan);

    ASSERT_EQ(plan.powerEvents().size(), 1u);
    const auto &event = plan.powerEvents()[0];
    // Trip lengths are uniform on [1, 2 * kMeanTripSamples - 1].
    EXPECT_GE(event.durationSamples, 1u);
    EXPECT_LE(static_cast<double>(event.durationSamples),
              2.0 * fault::kMeanTripSamples - 1.0);
    EXPECT_GT(report.blackoutSamples, 0u);
    EXPECT_EQ(report.instancesBlackedOut, 3u);
    for (const auto &t : traces)
        for (std::size_t s = 0; s < event.durationSamples; ++s)
            EXPECT_EQ(t[event.atSample + s], 0.0);
}

TEST(Inject, CheckBreakerTripsReportsTripsAndRefusesWhatInjectionRefuses)
{
    fault::FaultProfile trips;
    trips.breakerTrips = 1;
    const auto tripping = fault::FaultPlan::build(3, trips, {3, 40});
    // Derating is a power event too, but not a trip.
    fault::FaultProfile derate_only;
    derate_only.deratedNodes = 1;
    const auto quiet = fault::FaultPlan::build(3, derate_only, {3, 40});
    ASSERT_FALSE(quiet.powerEvents().empty());
    const std::vector<TimeSeries> traces(3, TimeSeries::constant(40, 1.0));
    const power::Assignment assignment(3, 0);
    EXPECT_TRUE(fault::checkBreakerTrips(traces, assignment, tripping));
    EXPECT_FALSE(fault::checkBreakerTrips(traces, assignment, quiet));

    // A quiet plan still validates the population it is applied to.
    const std::vector<TimeSeries> wrong_len(3,
                                            TimeSeries::constant(39, 1.0));
    EXPECT_THROW(fault::checkBreakerTrips(wrong_len, assignment, quiet),
                 FatalError);
    EXPECT_THROW(fault::checkBreakerTrips(traces, power::Assignment(2, 0),
                                          quiet),
                 FatalError);
}

TEST(Inject, DeratingScalesProvisionedBudgetsOnly)
{
    power::TopologySpec topo;
    topo.suites = 1;
    topo.msbsPerSuite = 1;
    topo.sbsPerMsb = 1;
    topo.rppsPerSb = 2;
    topo.racksPerRpp = 2;
    power::PowerTree tree(topo);
    for (const auto id : tree.nodesAtLevel(power::Level::Rpp))
        tree.setBudget(id, 100.0);

    fault::FaultProfile profile;
    profile.deratedNodes = 2;
    const auto plan = fault::FaultPlan::build(4, profile, {1, 10});
    for (const auto &event : plan.powerEvents())
        EXPECT_EQ(event.factor, fault::kDerateFactor);
    const auto derated =
        fault::applyDerating(tree, plan, power::Level::Rpp);
    EXPECT_EQ(derated.size(), 2u);
    for (const auto id : derated)
        EXPECT_LE(tree.node(id).budgetWatts,
                  100.0 * fault::kDerateFactor + 1e-12);

    // Unprovisioned levels are untouched (budget 0 means "unset").
    power::PowerTree bare(topo);
    EXPECT_TRUE(fault::applyDerating(bare, plan).empty());
}

// ---------------------------------------------------------------------
// Repair policies.

TEST(Repair, InterpolationFillsInteriorGapsLinearly)
{
    TimeSeries ts({1.0, kNaN, kNaN, 4.0}, 1);
    const auto r = trace::repairSeries(ts, trace::RepairPolicy::Interpolate);
    EXPECT_EQ(r.samplesRepaired, 2u);
    EXPECT_DOUBLE_EQ(r.validBefore, 0.5);
    EXPECT_FALSE(r.unrepairable);
    EXPECT_DOUBLE_EQ(ts[1], 2.0);
    EXPECT_DOUBLE_EQ(ts[2], 3.0);
}

TEST(Repair, HoldLastCarriesThePreviousReading)
{
    TimeSeries ts({1.0, kNaN, kNaN, 4.0}, 1);
    trace::repairSeries(ts, trace::RepairPolicy::HoldLast);
    EXPECT_DOUBLE_EQ(ts[1], 1.0);
    EXPECT_DOUBLE_EQ(ts[2], 1.0);
    EXPECT_DOUBLE_EQ(ts[3], 4.0);
}

TEST(Repair, EdgeGapsExtendTheNearestValidSample)
{
    TimeSeries lead({kNaN, kNaN, 3.0, 4.0}, 1);
    trace::repairSeries(lead, trace::RepairPolicy::Interpolate);
    EXPECT_DOUBLE_EQ(lead[0], 3.0);
    EXPECT_DOUBLE_EQ(lead[1], 3.0);

    TimeSeries tail({1.0, 2.0, kNaN, kNaN}, 1);
    trace::repairSeries(tail, trace::RepairPolicy::Interpolate);
    EXPECT_DOUBLE_EQ(tail[2], 2.0);
    EXPECT_DOUBLE_EQ(tail[3], 2.0);
}

TEST(Repair, AllNaNIsZeroFilledAndFlagged)
{
    TimeSeries ts({kNaN, kNaN, kNaN}, 1);
    const auto r = trace::repairSeries(ts, trace::RepairPolicy::Interpolate);
    EXPECT_TRUE(r.unrepairable);
    EXPECT_EQ(r.samplesRepaired, 3u);
    EXPECT_DOUBLE_EQ(r.validBefore, 0.0);
    for (std::size_t i = 0; i < ts.size(); ++i)
        EXPECT_EQ(ts[i], 0.0);
}

TEST(Repair, NonePolicyOnlyMeasures)
{
    TimeSeries ts({1.0, kNaN, 3.0}, 1);
    const auto r = trace::repairSeries(ts, trace::RepairPolicy::None);
    EXPECT_EQ(r.samplesRepaired, 0u);
    EXPECT_NEAR(r.validBefore, 2.0 / 3.0, 1e-12);
    EXPECT_TRUE(std::isnan(ts[1]));
}

TEST(Repair, RepairAllSummarizesTheBundle)
{
    std::vector<TimeSeries> traces = {
        TimeSeries({1.0, 2.0, 3.0}, 1),
        TimeSeries({1.0, kNaN, 3.0}, 1),
        TimeSeries({kNaN, kNaN, kNaN}, 1),
    };
    const auto summary =
        trace::repairAll(traces, trace::RepairPolicy::Interpolate);
    EXPECT_EQ(summary.tracesDegraded, 2u);
    EXPECT_EQ(summary.samplesRepaired, 4u);
    EXPECT_EQ(summary.tracesUnrepairable, 1u);
    ASSERT_EQ(summary.validBefore.size(), 3u);
    EXPECT_DOUBLE_EQ(summary.validBefore[0], 1.0);
    EXPECT_NEAR(summary.meanValidFraction(), (1.0 + 2.0 / 3.0) / 3.0,
                1e-12);
    EXPECT_DOUBLE_EQ(traces[1][1], 2.0);
}

TEST(Repair, InPlaceAndByValueFormsAgree)
{
    // injectTraceFaults + repairAll in place and injectedCopy +
    // repairedCopy by value must report the same faults and repairs and
    // leave the same samples.
    fault::FaultProfile profile;
    profile.sampleLossRate = 0.05;
    profile.stuckSensorRate = 0.5;
    profile.clockSkewRate = 0.5;
    profile.traceLossRate = 0.05;
    const fault::TraceShape shape{40, 336};
    const auto plan = fault::FaultPlan::build(5, profile, shape);
    std::vector<TimeSeries> traces;
    for (std::size_t k = 0; k < shape.instances; ++k) {
        std::vector<double> samples(shape.samplesPerTrace);
        for (std::size_t i = 0; i < samples.size(); ++i)
            samples[i] = 2.0 + std::sin(0.01 * double(i * (k + 1)));
        traces.emplace_back(std::move(samples), 30);
    }
    const auto original = traces;

    const auto report = fault::injectTraceFaults(traces, plan);
    EXPECT_GT(report.tracesSkewed, 0u);
    EXPECT_GT(report.samplesStuck, 0u);
    const auto summary =
        trace::repairAll(traces, trace::RepairPolicy::Interpolate);
    EXPECT_GT(summary.samplesRepaired, 0u);

    const auto injected = fault::injectedCopy(original, plan);
    EXPECT_EQ(injected.report.samplesDropped, report.samplesDropped);
    EXPECT_EQ(injected.report.samplesStuck, report.samplesStuck);
    EXPECT_EQ(injected.report.tracesLost, report.tracesLost);
    EXPECT_EQ(injected.report.tracesSkewed, report.tracesSkewed);
    const auto repaired = trace::repairedCopy(
        injected.traces, trace::RepairPolicy::Interpolate);
    EXPECT_EQ(repaired.summary.tracesDegraded, summary.tracesDegraded);
    EXPECT_EQ(repaired.summary.samplesRepaired, summary.samplesRepaired);
    EXPECT_EQ(repaired.summary.tracesUnrepairable,
              summary.tracesUnrepairable);
    EXPECT_EQ(repaired.summary.validBefore, summary.validBefore);
    ASSERT_EQ(repaired.traces.size(), traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
        EXPECT_EQ(repaired.traces[i].intervalMinutes(),
                  traces[i].intervalMinutes());
        EXPECT_EQ(repaired.traces[i].samples(), traces[i].samples());
    }
}

TEST(Repair, PolicyNamesRoundTrip)
{
    for (const auto policy :
         {trace::RepairPolicy::None, trace::RepairPolicy::HoldLast,
          trace::RepairPolicy::Interpolate})
        EXPECT_EQ(trace::repairPolicyFromName(trace::repairPolicyName(
                      policy)),
                  policy);
    EXPECT_THROW(trace::repairPolicyFromName("bogus"), FatalError);
}

// ---------------------------------------------------------------------
// Gap-aware kernels.

TEST(ValidKernels, SkipNaNSamples)
{
    TimeSeries ts({kNaN, 2.0, kNaN, 4.0, 1.0}, 1);
    EXPECT_EQ(trace::countValid(ts), 3u);
    EXPECT_DOUBLE_EQ(trace::validFraction(ts), 0.6);

    EXPECT_EQ(trace::countValid(TimeSeries({kNaN, kNaN}, 1)), 0u);
}

TEST(ValidKernels, SumValidCountsContributors)
{
    TimeSeries ts({1.0, kNaN, 2.0}, 1);
    EXPECT_EQ(trace::countValid(ts), 2u);
    EXPECT_DOUBLE_EQ(trace::validFraction(ts), 2.0 / 3.0);
}

// ---------------------------------------------------------------------
// Monitor degradation handling.

power::TopologySpec
twoRackTopology()
{
    power::TopologySpec topo;
    topo.suites = 1;
    topo.msbsPerSuite = 1;
    topo.sbsPerMsb = 1;
    topo.rppsPerSb = 2;
    topo.racksPerRpp = 1;
    return topo;
}

TEST(MonitorDegraded, FlagsRepairsAndWidensThresholds)
{
    power::PowerTree tree(twoRackTopology());
    const power::Assignment assignment{tree.racks()[0], tree.racks()[1]};
    core::MonitorConfig config;
    config.remapThreshold = 0.01;
    config.replaceThreshold = 0.08;
    core::FragmentationMonitor monitor(tree, config);

    // Healthy baseline week: ratio 8 / 5 = 1.6.
    const std::vector<TimeSeries> healthy = {
        TimeSeries({1.0, 2.0, 3.0, 4.0}, 1),
        TimeSeries({4.0, 3.0, 2.0, 1.0}, 1)};
    const auto first = monitor.observeWeek(healthy, assignment);
    EXPECT_FALSE(first.degradedData);
    EXPECT_DOUBLE_EQ(first.validFraction, 1.0);
    EXPECT_NEAR(first.fragmentationRatio, 1.6, 1e-12);

    // Same fragmentation drift twice: +1.85%, between the 1% threshold
    // and the widened 2% threshold.  The degraded variant's NaN gap is
    // linear, so interpolation reconstructs the drifted week exactly —
    // only the widened threshold can explain a different action.
    const std::vector<TimeSeries> drifted = {
        TimeSeries({1.0, 2.0, 3.0, 4.4}, 1),
        TimeSeries({4.4, 3.0, 2.0, 1.0}, 1)};
    std::vector<TimeSeries> drifted_degraded = drifted;
    drifted_degraded[0][1] = kNaN;
    drifted_degraded[0][2] = kNaN;

    const auto degraded =
        monitor.observeWeek(drifted_degraded, assignment);
    EXPECT_TRUE(degraded.degradedData);
    EXPECT_EQ(degraded.repairedSamples, 2u);
    EXPECT_NEAR(degraded.validFraction, 0.75, 1e-12);
    EXPECT_EQ(degraded.action, core::MonitorAction::None);

    const auto clean = monitor.observeWeek(drifted, assignment);
    EXPECT_FALSE(clean.degradedData);
    EXPECT_EQ(clean.action, core::MonitorAction::Remap);
    EXPECT_NEAR(clean.fragmentationRatio, degraded.fragmentationRatio,
                1e-9);
}

TEST(MonitorDegraded, DegradedRatiosStayOutOfTheBaselineWindow)
{
    power::PowerTree tree(twoRackTopology());
    const power::Assignment assignment{tree.racks()[0], tree.racks()[1]};
    core::MonitorConfig config;
    config.remapThreshold = 0.01;
    core::FragmentationMonitor monitor(tree, config);

    // Window: [1.6].
    monitor.observeWeek({TimeSeries({1.0, 2.0, 3.0, 4.0}, 1),
                         TimeSeries({4.0, 3.0, 2.0, 1.0}, 1)},
                        assignment);

    // Degraded week with a much *lower* ratio (1.0): were it pushed
    // into the window, the next healthy week would measure +60% and
    // recommend Replace.
    std::vector<TimeSeries> low = {TimeSeries({1.0, kNaN, kNaN, 4.0}, 1),
                                   TimeSeries({1.0, 2.0, 3.0, 4.0}, 1)};
    const auto degraded = monitor.observeWeek(low, assignment);
    EXPECT_TRUE(degraded.degradedData);
    EXPECT_NEAR(degraded.fragmentationRatio, 1.0, 1e-12);

    // Healthy week at the baseline ratio: no action, proving the
    // degraded 1.0 never became the baseline.
    const auto after = monitor.observeWeek(
        {TimeSeries({1.0, 2.0, 3.0, 4.0}, 1),
         TimeSeries({4.0, 3.0, 2.0, 1.0}, 1)},
        assignment);
    EXPECT_EQ(after.action, core::MonitorAction::None);
}

TEST(MonitorDegraded, MostlyLostInstancesAreExcluded)
{
    power::PowerTree tree(twoRackTopology());
    const power::Assignment assignment{tree.racks()[0], tree.racks()[1]};
    core::FragmentationMonitor monitor(tree);

    const std::vector<TimeSeries> week = {
        TimeSeries({1.0, 2.0, 3.0, 4.0}, 1),
        TimeSeries({kNaN, kNaN, kNaN, kNaN}, 1)};
    const auto obs = monitor.observeWeek(week, assignment);
    EXPECT_TRUE(obs.degradedData);
    EXPECT_EQ(obs.excludedInstances, 1u);
    // The excluded instance contributes zeros: the sum of peaks and the
    // root peak both come from instance 0 alone.
    EXPECT_NEAR(obs.sumOfPeaks, 4.0, 1e-12);
    EXPECT_NEAR(obs.rootPeak, 4.0, 1e-12);
}

// ---------------------------------------------------------------------
// Remap validity gating.

TEST(RemapValidity, LowValidityInstancesNeverSwap)
{
    power::PowerTree tree(twoRackTopology());
    // Rack 0 holds two synchronous peaky instances; rack 1 holds two
    // instances peaking elsewhere.  Any cross swap improves both racks.
    const std::vector<TimeSeries> itraces = {
        TimeSeries({10.0, 0.0, 0.0, 0.0}, 1),
        TimeSeries({10.0, 0.0, 0.0, 0.0}, 1),
        TimeSeries({0.0, 0.0, 10.0, 0.0}, 1),
        TimeSeries({0.0, 0.0, 10.0, 0.0}, 1)};
    const power::Assignment initial{tree.racks()[0], tree.racks()[0],
                                    tree.racks()[1], tree.racks()[1]};
    core::Remapper remapper(tree, {});

    // Sanity: without validity gating a swap is found.
    power::Assignment ungated = initial;
    ASSERT_FALSE(remapper.refine(ungated, itraces).empty());

    // Instance 0 is mostly fabricated: the swap must route around it.
    power::Assignment gated = initial;
    const std::vector<double> validity{0.1, 1.0, 1.0, 1.0};
    const auto swaps = remapper.refine(gated, itraces, &validity);
    ASSERT_FALSE(swaps.empty());
    for (const auto &swap : swaps) {
        EXPECT_NE(swap.instanceA, 0u);
        EXPECT_NE(swap.instanceB, 0u);
    }
    EXPECT_EQ(gated[0], initial[0]);

    // Everything below threshold: nothing may move.
    power::Assignment frozen = initial;
    const std::vector<double> all_bad{0.1, 0.1, 0.1, 0.1};
    EXPECT_TRUE(remapper.refine(frozen, itraces, &all_bad).empty());
    EXPECT_EQ(frozen, initial);

    // A fully valid vector matches the ungated result.
    power::Assignment trusted = initial;
    const std::vector<double> all_good{1.0, 1.0, 1.0, 1.0};
    remapper.refine(trusted, itraces, &all_good);
    EXPECT_EQ(trusted, ungated);

    // Size mismatch is a usage error.
    const std::vector<double> short_vec{1.0};
    power::Assignment a = initial;
    EXPECT_THROW(remapper.refine(a, itraces, &short_vec), FatalError);
}

// ---------------------------------------------------------------------
// End to end: the acceptance pipeline at 5% loss + breaker trip.

workload::DatacenterSpec
smallSpec()
{
    workload::DatacenterSpec spec;
    spec.name = "fault_e2e";
    spec.topology.suites = 1;
    spec.topology.msbsPerSuite = 1;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = 30;
    spec.weeks = 2;
    spec.seed = 99;
    spec.services.push_back({workload::webFrontend(), 12});
    spec.services.push_back({workload::dbBackend(), 12});
    spec.services.push_back({workload::hadoop(), 12});
    return spec;
}

TEST(FaultPipeline, SurvivesHarshProfileEndToEnd)
{
    obs::registry().resetValues();
    const auto spec = smallSpec();
    const auto dc = workload::generate(spec);
    auto training = dc.trainingTraces();
    auto test = dc.testTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);

    // Harsh profile: 5% sample loss + one breaker trip + one derate.
    const auto plan = fault::FaultPlan::build(
        7, fault::faultProfile("harsh"),
        {dc.instanceCount(), training.front().size()});
    const auto injected = fault::injectTraceFaults(training, plan);
    EXPECT_GT(injected.samplesDropped, 0u);
    const auto repair =
        trace::repairAll(training, trace::RepairPolicy::Interpolate);
    EXPECT_EQ(repair.samplesRepaired, injected.samplesDropped);
    fault::injectTraceFaults(test, plan);
    trace::repairAll(test, trace::RepairPolicy::Interpolate);

    power::PowerTree tree(spec.topology);
    const auto oblivious =
        baseline::obliviousPlacement(tree, service_of);
    core::PlacementEngine engine(tree, {});
    auto optimized = engine.place(training, service_of);
    core::Remapper remapper(tree, {});
    remapper.refine(optimized, training, &repair.validBefore);

    const auto trips =
        fault::injectBreakerTrips(test, tree, optimized, plan);
    EXPECT_GT(trips.blackoutSamples, 0u);

    const auto report =
        core::comparePlacements(tree, test, oblivious, optimized);
    EXPECT_EQ(report.levels.size(),
              static_cast<std::size_t>(power::kNumLevels));
    for (const auto &lc : report.levels)
        EXPECT_TRUE(std::isfinite(lc.peakReductionFraction));

    // Monitor a degraded week without crashing.
    std::vector<TimeSeries> week;
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        week.push_back(dc.weekTrace(i, 0));
    fault::injectTraceFaults(week, plan);
    core::FragmentationMonitor monitor(tree);
    const auto obs = monitor.observeWeek(week, optimized);
    EXPECT_TRUE(obs.degradedData);
    EXPECT_LT(obs.validFraction, 1.0);
    EXPECT_GT(obs.repairedSamples, 0u);

    // The degraded-data story must be visible to a metrics scrape.
    auto &reg = obs::registry();
    EXPECT_GT(reg.counter("fault.samples_dropped").value(), 0u);
    EXPECT_GT(reg.counter("fault.blackout_samples").value(), 0u);
    EXPECT_GT(reg.counter("trace.repair.samples_repaired").value(), 0u);
    EXPECT_GT(reg.counter("monitor.degraded_observations").value(), 0u);
}

TEST(FaultPipeline, FaultedRunsAreDeterministic)
{
    const auto run = [] {
        const auto spec = smallSpec();
        const auto dc = workload::generate(spec);
        auto training = dc.trainingTraces();
        std::vector<std::size_t> service_of(dc.instanceCount());
        for (std::size_t i = 0; i < dc.instanceCount(); ++i)
            service_of[i] = dc.serviceOf(i);
        const auto plan = fault::FaultPlan::build(
            7, fault::faultProfile("harsh"),
            {dc.instanceCount(), training.front().size()});
        fault::injectTraceFaults(training, plan);
        const auto repair = trace::repairAll(
            training, trace::RepairPolicy::Interpolate);
        power::PowerTree tree(spec.topology);
        core::PlacementEngine engine(tree, {});
        auto assignment = engine.place(training, service_of);
        core::Remapper remapper(tree, {});
        remapper.refine(assignment, training, &repair.validBefore);
        return std::make_pair(plan.fingerprint(), assignment);
    };
    const auto first = run();
    const auto second = run();
    EXPECT_EQ(first.first, second.first);
    EXPECT_EQ(first.second, second.second);
}

} // namespace

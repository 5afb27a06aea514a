/**
 * @file
 * Unit and property tests for the workload module: activity model,
 * catalog profiles, the trace generator, and the DC presets.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/fingerprints.h"
#include "trace/cdf.h"
#include "util/error.h"
#include "workload/catalog.h"
#include "workload/dc_presets.h"
#include "workload/generator.h"

namespace {

using namespace sosim::workload;
using sosim::trace::TimeSeries;
using sosim::trace::kMinutesPerDay;
using sosim::trace::kMinutesPerWeek;
using sosim::util::FatalError;

/** Run `body`, which must raise a FatalError whose message contains
 *  `tag`. */
template <typename F>
void
expectFatalTagged(F &&body, const std::string &tag)
{
    try {
        body();
        ADD_FAILURE() << "no FatalError; expected one tagged '" << tag
                      << "'";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(tag), std::string::npos)
            << e.what();
    }
}

DatacenterSpec
tinySpec(int interval = 30)
{
    DatacenterSpec spec;
    spec.name = "tiny";
    spec.topology.suites = 1;
    spec.topology.msbsPerSuite = 1;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = interval;
    spec.weeks = 3;
    spec.seed = 7;
    spec.services.push_back({webFrontend(), 12});
    spec.services.push_back({dbBackend(), 8});
    spec.services.push_back({hadoop(), 4});
    return spec;
}

TEST(ServiceClass, NamesAndPredicates)
{
    EXPECT_EQ(serviceClassName(ServiceClass::LatencyCritical), "LC");
    EXPECT_EQ(serviceClassName(ServiceClass::Batch), "Batch");
    EXPECT_EQ(serviceClassName(ServiceClass::Storage), "Storage");
    EXPECT_EQ(serviceClassName(ServiceClass::Infra), "Infra");
    EXPECT_TRUE(isLatencyCritical(ServiceClass::LatencyCritical));
    EXPECT_FALSE(isLatencyCritical(ServiceClass::Batch));
    EXPECT_TRUE(isBatch(ServiceClass::Batch));
    EXPECT_FALSE(isBatch(ServiceClass::Storage));
}

TEST(Activity, StaysInUnitInterval)
{
    const auto profiles = {webFrontend(), dbBackend(), hadoop(),
                           mobileDev(), labServer(), photoStorage()};
    for (const auto &p : profiles) {
        for (int m = 0; m < kMinutesPerWeek; m += 17) {
            const double a = activityAt(p, m);
            EXPECT_GE(a, 0.0) << p.name;
            EXPECT_LE(a, 1.0) << p.name;
        }
    }
}

TEST(Activity, PeaksNearConfiguredHour)
{
    // Use a low floor so the activity curve does not clamp into a
    // plateau around the peak (the clamp is tested separately).
    auto p = webFrontend();
    p.baseActivity = 0.1;
    p.dayOfWeekVariation = 0.0;
    // Scan Wednesday (day 2).
    double best = -1.0;
    int best_minute = 0;
    for (int m = 2 * kMinutesPerDay; m < 3 * kMinutesPerDay; ++m) {
        const double a = activityAt(p, m);
        if (a > best) {
            best = a;
            best_minute = m % kMinutesPerDay;
        }
    }
    EXPECT_NEAR(best_minute / 60.0, p.peakHour, 0.75);
}

TEST(Activity, PhaseShiftMovesThePeak)
{
    const auto p = webFrontend();
    const int day = 2 * kMinutesPerDay;
    auto peak_hour = [&](double phase) {
        double best = -1.0;
        int best_minute = 0;
        for (int m = day; m < day + kMinutesPerDay; ++m) {
            const double a = activityAt(p, m, phase);
            if (a > best) {
                best = a;
                best_minute = m - day;
            }
        }
        return best_minute / 60.0;
    };
    EXPECT_NEAR(peak_hour(2.0) - peak_hour(0.0), 2.0, 0.5);
}

TEST(Activity, WeekendFactorLowersWeekendLoad)
{
    auto p = webFrontend();
    p.weekendFactor = 0.5;
    // Same time of day, Wednesday (day 2) vs Saturday (day 5).
    const int minute_of_day =
        static_cast<int>(p.peakHour * 60.0);
    const double weekday =
        activityAt(p, 2 * kMinutesPerDay + minute_of_day);
    const double weekend =
        activityAt(p, 5 * kMinutesPerDay + minute_of_day);
    EXPECT_LT(weekend, weekday);
}

TEST(Activity, ValidatesMinuteRange)
{
    EXPECT_THROW(activityAt(webFrontend(), -1), FatalError);
    EXPECT_THROW(activityAt(webFrontend(), kMinutesPerWeek), FatalError);
}

TEST(Catalog, ProfilesHaveDistinctNamesAndSaneRanges)
{
    const std::vector<ServiceProfile> all = {
        webFrontend(), cache(),      search(),      searchIndex(),
        instagram(),   mobileDev(),  dbBackend(),   dbSecondary(),
        hadoop(),      batchJob(),   devPool(),     labServer(),
        photoStorage()};
    std::set<std::string> names;
    for (const auto &p : all) {
        EXPECT_TRUE(names.insert(p.name).second)
            << "duplicate name " << p.name;
        EXPECT_GT(p.maxPowerWatts, 0.0) << p.name;
        EXPECT_GE(p.idleFraction, 0.0) << p.name;
        EXPECT_LT(p.idleFraction, 1.0) << p.name;
        EXPECT_GE(p.peakHour, 0.0) << p.name;
        EXPECT_LT(p.peakHour, 24.0) << p.name;
        EXPECT_GE(p.baseActivity, 0.0) << p.name;
        EXPECT_LE(p.baseActivity, 1.0) << p.name;
    }
}

TEST(Catalog, ClassAssignmentsMatchThePaper)
{
    EXPECT_EQ(webFrontend().klass, ServiceClass::LatencyCritical);
    EXPECT_EQ(cache().klass, ServiceClass::LatencyCritical);
    EXPECT_EQ(dbBackend().klass, ServiceClass::Storage);
    EXPECT_EQ(hadoop().klass, ServiceClass::Batch);
    EXPECT_EQ(batchJob().klass, ServiceClass::Batch);
    EXPECT_EQ(labServer().klass, ServiceClass::Infra);
}

TEST(Catalog, DbPeaksAtNightWebPeaksInTheDay)
{
    // The core heterogeneity the paper exploits (Figure 6).
    const auto web = webFrontend();
    const auto db = dbBackend();
    EXPECT_GT(web.peakHour, 10.0);
    EXPECT_LT(web.peakHour, 20.0);
    EXPECT_LT(db.peakHour, 6.0);
}

TEST(Generator, SpecTotalsAndValidation)
{
    auto spec = tinySpec();
    EXPECT_EQ(spec.totalInstances(), 24);
    spec.services.clear();
    EXPECT_THROW(generate(spec), FatalError);
    spec = tinySpec();
    spec.weeks = 0;
    EXPECT_THROW(generate(spec), FatalError);
    spec = tinySpec();
    spec.intervalMinutes = 7; // 1440 % 7 != 0: rejected.
    EXPECT_THROW(generate(spec), FatalError);
}

TEST(Generator, ProducesRequestedShape)
{
    const auto spec = tinySpec();
    const auto dc = generate(spec);
    EXPECT_EQ(dc.instanceCount(), 24u);
    EXPECT_EQ(dc.serviceCount(), 3u);
    const std::size_t samples =
        static_cast<std::size_t>(kMinutesPerWeek / spec.intervalMinutes);
    for (std::size_t i = 0; i < dc.instanceCount(); ++i) {
        EXPECT_THROW(dc.weekTrace(i, 3), FatalError);
        for (int w = 0; w < 3; ++w) {
            const auto &week = dc.weekTrace(i, w);
            EXPECT_EQ(week.size(), samples);
            EXPECT_EQ(week.intervalMinutes(), spec.intervalMinutes);
        }
    }
}

TEST(Generator, PowerWithinPhysicalBounds)
{
    const auto dc = generate(tinySpec());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i) {
        const auto &profile = dc.serviceProfile(dc.serviceOf(i));
        for (int w = 0; w < 3; ++w) {
            const auto &week = dc.weekTrace(i, w);
            EXPECT_GE(week.valley(), 0.0);
            EXPECT_LE(week.peak(), profile.maxPowerWatts * 1.1 + 1e-9);
            // A server never idles below a sizable fraction of its idle
            // power (noise aside).
            EXPECT_GT(week.mean(), profile.maxPowerWatts *
                                       profile.idleFraction * 0.5);
        }
    }
}

TEST(Generator, DeterministicForFixedSeed)
{
    const auto a = generate(tinySpec());
    const auto b = generate(tinySpec());
    ASSERT_EQ(a.instanceCount(), b.instanceCount());
    for (std::size_t i = 0; i < a.instanceCount(); ++i)
        for (int w = 0; w < 3; ++w)
            for (std::size_t t = 0; t < a.weekTrace(i, w).size(); t += 13)
                EXPECT_DOUBLE_EQ(a.weekTrace(i, w)[t],
                                 b.weekTrace(i, w)[t]);
}

TEST(Generator, StreamIsPinned)
{
    // The generator's random stream is part of every downstream golden;
    // a change to it (draw order, fork derivation, distribution) fails
    // here first.
    const auto dc = generate(tinySpec());
    std::vector<TimeSeries> week;
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        week.push_back(dc.weekTrace(i, 0));
    EXPECT_EQ(sosim::core::fingerprintTraces(week), 0xfc5fc7089c6efffaULL);
}

TEST(Generator, SeedChangesTraces)
{
    auto spec = tinySpec();
    const auto a = generate(spec);
    spec.seed += 1;
    const auto b = generate(spec);
    int differing = 0;
    for (std::size_t t = 0; t < a.weekTrace(0, 0).size(); ++t)
        if (a.weekTrace(0, 0)[t] != b.weekTrace(0, 0)[t])
            ++differing;
    EXPECT_GT(differing, 100);
}

TEST(Generator, ServiceGroupingAccessors)
{
    const auto dc = generate(tinySpec());
    const auto web = dc.instancesOfService(0);
    const auto db = dc.instancesOfService(1);
    const auto hadoop_members = dc.instancesOfService(2);
    EXPECT_EQ(web.size(), 12u);
    EXPECT_EQ(db.size(), 8u);
    EXPECT_EQ(hadoop_members.size(), 4u);
    for (const auto i : web)
        EXPECT_EQ(dc.serviceOf(i), 0u);

    const auto lc = dc.instancesOfClass(ServiceClass::LatencyCritical);
    EXPECT_EQ(lc.size(), 12u);
    const auto batch = dc.instancesOfClass(ServiceClass::Batch);
    EXPECT_EQ(batch.size(), 4u);
}

TEST(Generator, TrainingTracesAverageAllButLastWeek)
{
    const auto dc = generate(tinySpec());
    const auto training = dc.trainingTraces();
    ASSERT_EQ(training.size(), dc.instanceCount());
    const auto &w0 = dc.weekTrace(3, 0);
    const auto &w1 = dc.weekTrace(3, 1);
    for (std::size_t t = 0; t < w0.size(); t += 29)
        EXPECT_NEAR(training[3][t], (w0[t] + w1[t]) / 2.0, 1e-12);
}

TEST(Generator, TestTracesAreTheLastWeek)
{
    const auto dc = generate(tinySpec());
    const auto test = dc.testTraces();
    for (std::size_t t = 0; t < test[0].size(); t += 31)
        EXPECT_DOUBLE_EQ(test[5][t], dc.weekTrace(5, 2)[t]);
}

TEST(Generator, TestTracesAreTheStoredLastWeekNotACopy)
{
    const auto dc = generate(tinySpec());
    const auto &test = dc.testTraces();
    ASSERT_EQ(test.size(), dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        EXPECT_EQ(&test[i], &dc.weekTrace(i, 2));
}

TEST(Generator, TakenWeeksLeaveTheWeekAccessorsRefusing)
{
    auto dc = generate(tinySpec());
    const double *test_rows = dc.testTraces().front().samples().data();
    auto weeks = std::move(dc).takeWeeks();
    ASSERT_EQ(weeks.size(), 3u);
    for (const auto &week : weeks)
        EXPECT_EQ(week.size(), 24u);
    // The rows moved; none was copied.
    EXPECT_EQ(weeks.back().front().samples().data(), test_rows);
    expectFatalTagged([&] { (void)dc.testTraces(); }, "testTraces");
    expectFatalTagged([&] { (void)dc.weekTrace(0, 0); }, "weekTrace");
    expectFatalTagged([&] { (void)dc.trainingTraces(); },
                      "trainingTraces");
    // Metadata and service activity stay readable.
    EXPECT_EQ(dc.instanceCount(), 24u);
    EXPECT_EQ(dc.serviceOf(0), 0u);
    EXPECT_GE(dc.serviceActivity(0, 2).valley(), 0.0);

    // A datacenter moved from as a whole refuses the same way.
    auto source = generate(tinySpec());
    const auto target = std::move(source);
    EXPECT_EQ(target.weekTrace(3, 1).size(), weeks[1][3].size());
    expectFatalTagged([&] { (void)source.testTraces(); }, "testTraces");
}

TEST(Generator, RefusesTotalsPastIntMax)
{
    // Two services of INT_MAX instances each: the 64-bit total is
    // refused before generate allocates anything.
    auto spec = tinySpec();
    spec.services.resize(2);
    spec.services[0].instanceCount = std::numeric_limits<int>::max();
    spec.services[1].instanceCount = std::numeric_limits<int>::max();
    EXPECT_EQ(spec.totalInstances(),
              2 * static_cast<std::int64_t>(
                      std::numeric_limits<int>::max()));
    expectFatalTagged([&] { generate(spec); }, "generate:");
}

TEST(Generator, ServiceActivityInUnitRange)
{
    const auto dc = generate(tinySpec());
    for (std::size_t s = 0; s < dc.serviceCount(); ++s)
        for (int w = 0; w < 3; ++w) {
            const auto &act = dc.serviceActivity(s, w);
            EXPECT_GE(act.valley(), 0.0);
            EXPECT_LE(act.peak(), 1.0);
        }
    EXPECT_THROW(dc.serviceActivity(99, 0), FatalError);
    EXPECT_THROW(dc.serviceActivity(0, 5), FatalError);
}

TEST(Generator, WebAggregatesPeakInDaytimeDbAtNight)
{
    const auto dc = generate(tinySpec(10));
    const auto training = dc.trainingTraces();

    auto aggregate_of = [&](std::size_t service) {
        auto members = dc.instancesOfService(service);
        TimeSeries acc = TimeSeries::zeros(
            training[0].size(), training[0].intervalMinutes());
        for (const auto i : members)
            acc += training[i];
        return acc;
    };
    const auto web = aggregate_of(0);
    const auto db = aggregate_of(1);
    const double web_peak_hour =
        (web.peakIndex() * 10 % kMinutesPerDay) / 60.0;
    const double db_peak_hour =
        (db.peakIndex() * 10 % kMinutesPerDay) / 60.0;
    EXPECT_GT(web_peak_hour, 9.0);
    EXPECT_LT(web_peak_hour, 20.0);
    // Db backup window: late night / early morning.
    EXPECT_TRUE(db_peak_hour < 7.0 || db_peak_hour > 22.0)
        << "db peak hour " << db_peak_hour;
}

TEST(Generator, ZipfPopularitySkewsInstanceMeans)
{
    auto spec = tinySpec();
    spec.services[1].profile.popularityZipf = 1.0;
    const auto dc = generate(spec);
    const auto members = dc.instancesOfService(1);
    double min_pop = 1e9, max_pop = -1e9;
    for (const auto i : members) {
        min_pop = std::min(min_pop, dc.instance(i).popularity);
        max_pop = std::max(max_pop, dc.instance(i).popularity);
    }
    EXPECT_GT(max_pop / min_pop, 2.0);
    // Mean popularity stays 1 so the aggregate is unaffected.
    double total = 0.0;
    for (const auto i : members)
        total += dc.instance(i).popularity;
    EXPECT_NEAR(total / members.size(), 1.0, 1e-9);
}

TEST(Presets, AllThreeBuildAndDiffer)
{
    PresetOptions options;
    options.scale = 0.1;
    const auto specs = buildAllDcSpecs(options);
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].name, "DC1");
    EXPECT_EQ(specs[1].name, "DC2");
    EXPECT_EQ(specs[2].name, "DC3");
    for (const auto &spec : specs) {
        EXPECT_EQ(spec.services.size(), 10u) << spec.name;
        EXPECT_GT(spec.totalInstances(), 0) << spec.name;
    }
    EXPECT_NE(specs[0].seed, specs[1].seed);
}

TEST(Presets, FullScaleInstanceCountsFillTopology)
{
    for (const auto &spec : buildAllDcSpecs()) {
        EXPECT_EQ(spec.totalInstances(), 1536) << spec.name;
        EXPECT_EQ(spec.topology.totalRacks(), 256) << spec.name;
    }
}

TEST(Presets, EveryDcHasLcAndBatch)
{
    PresetOptions options;
    options.scale = 0.05;
    for (const auto &spec : buildAllDcSpecs(options)) {
        bool has_lc = false, has_batch = false;
        for (const auto &dep : spec.services) {
            has_lc |= dep.profile.klass == ServiceClass::LatencyCritical;
            has_batch |= dep.profile.klass == ServiceClass::Batch;
        }
        EXPECT_TRUE(has_lc) << spec.name;
        EXPECT_TRUE(has_batch) << spec.name;
    }
}

TEST(Presets, ScaleKeepsServicesNonEmpty)
{
    PresetOptions options;
    options.scale = 0.01;
    for (const auto &spec : buildAllDcSpecs(options))
        for (const auto &dep : spec.services)
            EXPECT_GE(dep.instanceCount, 1);
}

TEST(Presets, RefuseScalesThatAreNotFinitePositiveOrFitInAnInt)
{
    const double kRefused[] = {-5.0,
                               0.0,
                               1e-9,
                               1e7,
                               1.5e6,
                               std::nan(""),
                               std::numeric_limits<double>::infinity()};
    for (const double scale : kRefused) {
        PresetOptions options;
        options.scale = scale;
        expectFatalTagged([&] { buildDc1Spec(options); }, "DC1 preset:");
        expectFatalTagged([&] { buildDc2Spec(options); }, "DC2 preset:");
        expectFatalTagged([&] { buildDc3Spec(options); }, "DC3 preset:");
    }
    // The largest scale whose DC3 total still fits in an int builds.
    PresetOptions options;
    options.scale = 1e6;
    EXPECT_EQ(buildDc3Spec(options).totalInstances(), 1536000000);
}

TEST(Presets, RefuseFewerThanTwoWeeks)
{
    // The last week is held out for evaluation: with one week the
    // training average would be the test week itself.
    for (const int weeks : {1, 0, -3}) {
        PresetOptions options;
        options.scale = 0.1;
        options.weeks = weeks;
        expectFatalTagged([&] { buildDc1Spec(options); }, "DC1 preset:");
        expectFatalTagged([&] { buildDc2Spec(options); }, "DC2 preset:");
        expectFatalTagged([&] { buildDc3Spec(options); }, "DC3 preset:");
        expectFatalTagged([&] { buildFleetSpec(1024, options); },
                          "fleet1024 preset:");
    }
    PresetOptions options;
    options.scale = 0.1;
    options.weeks = 2;
    EXPECT_EQ(buildDc1Spec(options).weeks, 2);
    EXPECT_EQ(buildFleetSpec(1024, options).weeks, 2);
}

/** Property sweep: generation respects every supported interval. */
class GeneratorInterval : public ::testing::TestWithParam<int>
{
};

TEST_P(GeneratorInterval, WeekDividesEvenlyAndBoundsHold)
{
    auto spec = tinySpec(GetParam());
    spec.services.resize(1);
    spec.services[0].instanceCount = 3;
    const auto dc = generate(spec);
    const std::size_t expected =
        static_cast<std::size_t>(kMinutesPerWeek / GetParam());
    EXPECT_EQ(dc.weekTrace(0, 0).size(), expected);
    EXPECT_GE(dc.weekTrace(0, 0).valley(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Intervals, GeneratorInterval,
                         ::testing::Values(1, 2, 5, 10, 15, 30, 60));

} // namespace

#include "generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace sosim::workload {

namespace {

/** Wrapped hour distance on the 24h circle. */
double
hourDistance(double a, double b)
{
    double d = std::fmod(std::abs(a - b), 24.0);
    return std::min(d, 24.0 - d);
}

/** Gaussian bump on the 24h circle, peak value 1 at `center`. */
double
dailyBump(double hour, double center, double sigma_hours)
{
    const double d = hourDistance(hour, center);
    return std::exp(-0.5 * (d / sigma_hours) * (d / sigma_hours));
}

/** Day-of-week activity multiplier (Sat=5, Sun=6 of the trace week). */
double
dayOfWeekFactor(const ServiceProfile &profile, int day)
{
    if (day == 5 || day == 6)
        return profile.weekendFactor;
    // Mild weekday undulation (paper: "strong day-of-the-week activity
    // patterns"); deterministic in the day index.
    return 1.0 + profile.dayOfWeekVariation *
                     std::sin(2.0 * M_PI * static_cast<double>(day) / 7.0);
}

/** Raw (pre-clamp) bump component of the activity at an hour of day. */
double
bumpAt(const ServiceProfile &profile, double hour, double phase_hours)
{
    const double h = hour - phase_hours;
    double bump = dailyBump(h, profile.peakHour, profile.peakWidthHours);
    if (profile.secondaryPeakHour >= 0.0) {
        bump += profile.secondaryWeight *
                dailyBump(h, profile.secondaryPeakHour,
                          profile.peakWidthHours);
    }
    return std::min(bump, 1.0);
}

} // namespace

double
activityAt(const ServiceProfile &profile, int minute_of_week,
           double phase_hours)
{
    SOSIM_REQUIRE(minute_of_week >= 0 &&
                      minute_of_week < trace::kMinutesPerWeek,
                  "activityAt: minute out of range");
    const int day = minute_of_week / trace::kMinutesPerDay;
    const double hour =
        static_cast<double>(minute_of_week % trace::kMinutesPerDay) / 60.0;
    const double bump = bumpAt(profile, hour, phase_hours);
    const double dow = dayOfWeekFactor(profile, day);
    const double activity =
        profile.baseActivity +
        (1.0 - profile.baseActivity) * bump * dow;
    return std::clamp(activity, 0.0, 1.0);
}

std::int64_t
DatacenterSpec::totalInstances() const
{
    std::int64_t total = 0;
    for (const auto &dep : services)
        total += dep.instanceCount;
    return total;
}

GeneratedDatacenter::GeneratedDatacenter(
    DatacenterSpec spec, std::vector<InstanceInfo> instances,
    std::vector<std::vector<trace::TimeSeries>> weeks,
    std::vector<std::vector<trace::TimeSeries>> service_activity)
    : spec_(std::move(spec)), instances_(std::move(instances)),
      weeks_(std::move(weeks)),
      serviceActivity_(std::move(service_activity))
{
}

const std::vector<std::vector<trace::TimeSeries>> &
GeneratedDatacenter::weeks(const char *tag) const
{
    SOSIM_REQUIRE(!weeks_.empty(),
                  std::string("GeneratedDatacenter::") + tag +
                      ": the weeks were moved out (takeWeeks)");
    return weeks_;
}

std::vector<std::vector<trace::TimeSeries>>
GeneratedDatacenter::takeWeeks() &&
{
    auto out = std::move(weeks_);
    weeks_.clear();
    return out;
}

const InstanceInfo &
GeneratedDatacenter::instance(std::size_t i) const
{
    SOSIM_REQUIRE(i < instances_.size(),
                  "GeneratedDatacenter::instance: index out of range");
    return instances_[i];
}

const ServiceProfile &
GeneratedDatacenter::serviceProfile(std::size_t s) const
{
    SOSIM_REQUIRE(s < spec_.services.size(),
                  "GeneratedDatacenter::serviceProfile: index out of range");
    return spec_.services[s].profile;
}

std::size_t
GeneratedDatacenter::serviceOf(std::size_t i) const
{
    return instance(i).serviceIndex;
}

std::vector<std::size_t>
GeneratedDatacenter::instancesOfService(std::size_t s) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < instances_.size(); ++i)
        if (instances_[i].serviceIndex == s)
            out.push_back(i);
    return out;
}

std::vector<std::size_t>
GeneratedDatacenter::instancesOfClass(ServiceClass klass) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < instances_.size(); ++i)
        if (serviceProfile(instances_[i].serviceIndex).klass == klass)
            out.push_back(i);
    return out;
}

std::vector<trace::TimeSeries>
GeneratedDatacenter::trainingTraces() const
{
    const auto &store = weeks("trainingTraces");
    const int train_weeks = std::max(1, spec_.weeks - 1);
    std::vector<trace::TimeSeries> out;
    out.reserve(instances_.size());
    // trace::averageWeeks's arithmetic, summed in place: zeros, each
    // training week added in order, one scale — bit-identical to it
    // without copying the weeks.
    for (std::size_t i = 0; i < instances_.size(); ++i) {
        const auto &first = store.front()[i];
        auto avg = trace::TimeSeries::zeros(first.size(),
                                            first.intervalMinutes());
        for (int w = 0; w < train_weeks; ++w)
            avg += store[w][i];
        avg *= 1.0 / static_cast<double>(train_weeks);
        out.push_back(std::move(avg));
    }
    return out;
}

const std::vector<trace::TimeSeries> &
GeneratedDatacenter::testTraces() const
{
    return weeks("testTraces").back();
}

const trace::TimeSeries &
GeneratedDatacenter::weekTrace(std::size_t i, int week) const
{
    const auto &store = weeks("weekTrace");
    SOSIM_REQUIRE(i < instances_.size(),
                  "GeneratedDatacenter::weekTrace: index out of range");
    SOSIM_REQUIRE(week >= 0 && week < static_cast<int>(store.size()),
                  "GeneratedDatacenter::weekTrace: week out of range");
    return store[week][i];
}

const trace::TimeSeries &
GeneratedDatacenter::serviceActivity(std::size_t s, int week) const
{
    SOSIM_REQUIRE(s < serviceActivity_.size(),
                  "serviceActivity: service out of range");
    SOSIM_REQUIRE(week >= 0 &&
                      week < static_cast<int>(serviceActivity_[s].size()),
                  "serviceActivity: week out of range");
    return serviceActivity_[s][week];
}

GeneratedDatacenter
generate(const DatacenterSpec &spec)
{
    SOSIM_SPAN("workload.generate");
    SOSIM_REQUIRE(!spec.services.empty(),
                  "generate: spec must declare at least one service");
    SOSIM_REQUIRE(spec.weeks >= 1, "generate: need at least one week");
    SOSIM_REQUIRE(spec.intervalMinutes >= 1 &&
                      trace::kMinutesPerDay % spec.intervalMinutes == 0,
                  "generate: interval must divide a day evenly");
    for (const auto &dep : spec.services)
        SOSIM_REQUIRE(dep.instanceCount >= 0,
                      "generate: negative instance count");
    const std::int64_t total = spec.totalInstances();
    SOSIM_REQUIRE(total <= std::numeric_limits<int>::max(),
                  "generate: " + std::to_string(total) +
                      " instances do not fit in an int");
    const auto instance_count = static_cast<std::size_t>(total);
    const std::size_t samples_per_week = static_cast<std::size_t>(
        trace::kMinutesPerWeek / spec.intervalMinutes);
    const std::size_t samples_per_day = static_cast<std::size_t>(
        trace::kMinutesPerDay / spec.intervalMinutes);

    util::Rng master(spec.seed);

    // Per-service weekly modulation (shared by all instances of the
    // service so that synchronous instances stay synchronous).
    const std::size_t num_services = spec.services.size();
    std::vector<std::vector<double>> week_scale(num_services);
    std::vector<std::vector<double>> week_phase(num_services);
    for (std::size_t s = 0; s < num_services; ++s) {
        util::Rng rng = master.fork();
        week_scale[s].resize(spec.weeks);
        week_phase[s].resize(spec.weeks);
        for (int w = 0; w < spec.weeks; ++w) {
            week_scale[s][w] =
                std::max(0.5, 1.0 + rng.normal(0.0, spec.weekScaleStd)) *
                std::pow(1.0 + spec.weeklyGrowth, w);
            week_phase[s][w] = rng.normal(0.0, spec.weekPhaseStd);
        }
    }

    // Nominal per-service activity curves.
    std::vector<std::vector<trace::TimeSeries>> service_activity(
        num_services);
    for (std::size_t s = 0; s < num_services; ++s) {
        const auto &profile = spec.services[s].profile;
        for (int w = 0; w < spec.weeks; ++w) {
            std::vector<double> act(samples_per_week);
            for (std::size_t t = 0; t < samples_per_week; ++t) {
                const int minute =
                    static_cast<int>(t) * spec.intervalMinutes;
                act[t] = std::clamp(activityAt(profile, minute,
                                               week_phase[s][w]) *
                                        week_scale[s][w],
                                    0.0, 1.0);
            }
            service_activity[s].emplace_back(std::move(act),
                                             spec.intervalMinutes);
        }
    }

    // Instances, in two phases.  The serial phase makes every draw of
    // the service streams, in service order: the Zipf shuffle, then one
    // fork per instance, kept as the fork's 8-byte seed rather than a
    // live engine.  It also allocates every row of the week-major store
    // on this thread, so the samples do not land in the workers' malloc
    // arenas.  The parallel phase rebuilds each instance's stream from
    // its seed and writes only that instance's slot and rows, so the
    // output does not depend on the thread count.
    std::vector<InstanceInfo> instances(instance_count);
    std::vector<std::uint64_t> seeds(instance_count);
    std::vector<std::vector<trace::TimeSeries>> weeks(
        static_cast<std::size_t>(spec.weeks));
    for (auto &week : weeks) {
        week.reserve(instance_count);
        for (std::size_t i = 0; i < instance_count; ++i)
            week.push_back(trace::TimeSeries::zeros(samples_per_week,
                                                    spec.intervalMinutes));
    }
    std::size_t next = 0;
    for (std::size_t s = 0; s < num_services; ++s) {
        const auto &dep = spec.services[s];
        const std::size_t n = static_cast<std::size_t>(dep.instanceCount);
        if (n == 0)
            continue;
        const auto &profile = dep.profile;
        util::Rng service_rng = master.fork();

        // Popularity weights: Zipf over a shuffled rank order, normalized
        // to mean 1 so the service's aggregate power is rank-independent.
        std::vector<double> popularity(n, 1.0);
        if (profile.popularityZipf > 0.0) {
            std::vector<std::size_t> ranks(n);
            for (std::size_t i = 0; i < n; ++i)
                ranks[i] = i;
            service_rng.shuffle(ranks);
            double total = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                popularity[i] = std::pow(
                    static_cast<double>(ranks[i] + 1),
                    -profile.popularityZipf);
                total += popularity[i];
            }
            const double mean = total / static_cast<double>(n);
            for (auto &p : popularity)
                p /= mean;
        }

        for (std::size_t i = 0; i < n; ++i, ++next) {
            seeds[next] = service_rng.forkSeed();
            auto &info = instances[next];
            info.serviceIndex = s;
            info.popularity = popularity[i];
        }
    }

    util::parallelFor(instance_count, [&](std::size_t i) {
        auto &info = instances[i];
        const std::size_t s = info.serviceIndex;
        const auto &profile = spec.services[s].profile;
        util::Rng rng(seeds[i]);
        info.amplitude = std::max(
            0.2, 1.0 + rng.normal(0.0, profile.amplitudeJitterFrac));
        info.phaseHours = rng.normal(0.0, profile.phaseJitterHours);

        // dayOfWeekFactor calls std::sin; the week has seven values.
        std::array<double, 7> day_factor{};
        for (int day = 0; day < 7; ++day)
            day_factor[day] = dayOfWeekFactor(profile, day);
        std::vector<double> bump_table(samples_per_day);
        std::vector<double> burst(samples_per_week);
        for (int w = 0; w < spec.weeks; ++w) {
            // Per-instance daily bump table: the bump only depends on
            // the time of day, so evaluate one day and reuse it.
            for (std::size_t t = 0; t < samples_per_day; ++t) {
                const int minute = static_cast<int>(t) * spec.intervalMinutes;
                const double hour = static_cast<double>(minute) / 60.0;
                bump_table[t] = bumpAt(profile, hour,
                                       info.phaseHours + week_phase[s][w]);
            }

            // Burst schedule for the week: multiplicative pulses.
            std::fill(burst.begin(), burst.end(), 1.0);
            if (profile.burstsPerDay > 0.0) {
                for (int day = 0; day < 7; ++day) {
                    if (!rng.chance(profile.burstsPerDay))
                        continue;
                    const std::size_t start =
                        static_cast<std::size_t>(day) * samples_per_day +
                        static_cast<std::size_t>(rng.uniformInt(
                            0, (std::int64_t)samples_per_day - 1));
                    const std::size_t len = std::max<std::size_t>(
                        1, static_cast<std::size_t>(profile.burstMinutes /
                                                    spec.intervalMinutes));
                    for (std::size_t t = start;
                         t < std::min(start + len, samples_per_week); ++t) {
                        burst[t] = profile.burstMagnitude;
                    }
                }
            }

            double *samples = weeks[w][i].data();
            const double gain =
                info.popularity * info.amplitude * week_scale[s][w];
            for (std::size_t t = 0; t < samples_per_week; ++t) {
                const double activity = std::clamp(
                    (profile.baseActivity +
                     (1.0 - profile.baseActivity) *
                         bump_table[t % samples_per_day] *
                         day_factor[t / samples_per_day]) *
                        burst[t] * gain,
                    0.0, 1.2);
                double p = profile.maxPowerWatts *
                           (profile.idleFraction +
                            (1.0 - profile.idleFraction) * activity);
                p += rng.normal(0.0, profile.noiseStd);
                samples[t] =
                    std::clamp(p, 0.0, profile.maxPowerWatts * 1.1);
            }
        }
    });

    return GeneratedDatacenter(spec, std::move(instances), std::move(weeks),
                               std::move(service_activity));
}

} // namespace sosim::workload

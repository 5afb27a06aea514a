#include "dc_presets.h"

#include <cmath>
#include <limits>

#include "util/error.h"
#include "workload/catalog.h"

namespace sosim::workload {

namespace {

constexpr double kMaxCount = std::numeric_limits<int>::max();

/** The last week is held out for evaluation, so one week is too few. */
void
requireHeldOutWeek(const std::string &name, const PresetOptions &options)
{
    SOSIM_REQUIRE(options.weeks >= 2,
                  name + " preset: need at least two weeks (the last one "
                         "is held out for evaluation)");
}

DatacenterSpec
baseSpec(const std::string &name, const PresetOptions &options)
{
    DatacenterSpec spec;
    spec.name = name;
    spec.intervalMinutes = options.intervalMinutes;
    spec.weeks = options.weeks;
    spec.seed = options.seed;
    // 4 suites x 2 MSB x 2 SB x 4 RPP x 4 racks = 256 racks.
    spec.topology = power::TopologySpec{};
    SOSIM_REQUIRE(std::isfinite(options.scale) && options.scale > 0.0,
                  name + " preset: scale must be finite and above 0");
    requireHeldOutWeek(name, options);
    return spec;
}

/** Add a service with its count scaled and rounded; the floor of one
 *  instance is applied by floored() once every service is added. */
void
add(DatacenterSpec &spec, ServiceProfile profile, int count, double scale)
{
    const double scaled = std::round(count * scale);
    SOSIM_REQUIRE(scaled <= kMaxCount,
                  spec.name + " preset: service '" + profile.name +
                      "' would have more instances than fit in an int");
    spec.services.push_back(
        {std::move(profile), static_cast<int>(scaled)});
}

/** Keep at least one instance of every service.  A scale that rounds
 *  every service to none is refused, since the floor alone would then
 *  set the counts; so is one whose total does not fit in an int. */
DatacenterSpec
floored(DatacenterSpec spec)
{
    bool any = false;
    for (auto &dep : spec.services) {
        any = any || dep.instanceCount > 0;
        dep.instanceCount = std::max(1, dep.instanceCount);
    }
    SOSIM_REQUIRE(any, spec.name + " preset: scale rounds every service to "
                                   "zero instances");
    SOSIM_REQUIRE(spec.totalInstances() <= std::numeric_limits<int>::max(),
                  spec.name + " preset: the instance total would not fit "
                              "in an int");
    return spec;
}

/** Dampen instance-level heterogeneity (for DC1). */
ServiceProfile
homogenized(ServiceProfile p)
{
    p.phaseJitterHours *= 0.4;
    p.amplitudeJitterFrac *= 0.5;
    p.popularityZipf *= 0.3;
    return p;
}

} // namespace

DatacenterSpec
buildDc1Spec(const PresetOptions &options)
{
    DatacenterSpec spec = baseSpec("DC1", options);
    const double s = options.scale;
    // Frontend-dominated; the long tail of "service W/X/Y/Z/B" are
    // web-like LC services with near-identical daytime peaks, so the
    // datacenter offers little asynchrony to exploit.
    add(spec, homogenized(webFrontend()), 320, s);
    add(spec, homogenized(cache()), 144, s);
    add(spec, homogenized(search()), 128, s);
    add(spec, homogenized(genericLc("service W", 13.5)), 128, s);
    add(spec, homogenized(genericLc("service X", 14.0)), 128, s);
    // Day-peaking batch pools: synchronous with the LC tier (so DC1
    // stays homogeneous for placement) but convertible and throttleable.
    ServiceProfile service_y = devPool();
    service_y.name = "service Y";
    service_y.peakHour = 14.5;
    add(spec, homogenized(service_y), 128, s);
    ServiceProfile service_z = devPool();
    service_z.name = "service Z";
    service_z.peakHour = 15.0;
    add(spec, homogenized(service_z), 128, s);
    // A modest day-peaking batch pool (synchronous with the LC tier, so
    // it adds little asynchrony) gives the reshaping runtime something
    // to convert and throttle in DC1.
    ServiceProfile batch_pool = devPool();
    batch_pool.name = "batchpool";
    add(spec, homogenized(batch_pool), 128, s);
    add(spec, homogenized(photoStorage()), 160, s);
    add(spec, homogenized(mobileDev()), 144, s);
    return floored(std::move(spec));
}

DatacenterSpec
buildDc2Spec(const PresetOptions &options)
{
    DatacenterSpec spec = baseSpec("DC2", options);
    spec.seed = options.seed + 1;
    const double s = options.scale;
    // Mixed population: storage backends with night backups, flat batch
    // fleets, and a moderate LC tier.
    add(spec, labServer(), 304, s);
    add(spec, webFrontend(), 256, s);
    add(spec, devPool(), 224, s);
    add(spec, dbBackend(), 144, s);
    add(spec, hadoop(), 144, s);
    add(spec, cache(), 160, s);
    add(spec, batchJob(), 80, s);
    add(spec, searchIndex(), 64, s);
    add(spec, search(), 96, s);
    add(spec, dbSecondary(), 64, s);
    return floored(std::move(spec));
}

DatacenterSpec
buildDc3Spec(const PresetOptions &options)
{
    DatacenterSpec spec = baseSpec("DC3", options);
    spec.seed = options.seed + 2;
    const double s = options.scale;
    // Highly heterogeneous and LC-heavy: tall daytime frontend peaks,
    // flat hadoop, night-peaking databases, evening-peaking instagram.
    add(spec, webFrontend(), 320, s);
    add(spec, hadoop(), 224, s);
    add(spec, dbBackend(), 336, s);
    add(spec, search(), 128, s);
    add(spec, mobileDev(), 112, s);
    add(spec, instagram(), 128, s);
    add(spec, cache(), 80, s);
    add(spec, dbSecondary(), 128, s);
    add(spec, genericLc("service A", 17.0), 32, s);
    add(spec, labServer(), 48, s);
    return floored(std::move(spec));
}

std::vector<DatacenterSpec>
buildAllDcSpecs(const PresetOptions &options)
{
    return {buildDc1Spec(options), buildDc2Spec(options),
            buildDc3Spec(options)};
}

DatacenterSpec
buildFleetSpec(int population, const PresetOptions &options)
{
    SOSIM_REQUIRE(population > 0 && population % 256 == 0,
                  "buildFleetSpec: population must be a positive "
                  "multiple of 256");
    DatacenterSpec spec;
    spec.name = "fleet" + std::to_string(population);
    requireHeldOutWeek(spec.name, options);
    spec.intervalMinutes = options.intervalMinutes;
    spec.weeks = options.weeks;
    spec.seed = options.seed + 7;

    // ~8 instances per rack, 16 racks per SB, 2 MSBs per suite; the
    // remaining SB count factors into suites x sbsPerMsb as near-square
    // as possible.  population 1024 -> 2x2x2x4x4 = 128 racks; 4096 ->
    // 4x2x4x4x4 = 512 racks.
    const int sb_total = population / 128;
    const int sb_pairs = sb_total / 2;
    int suites = 1;
    for (int d = 1; d * d <= sb_pairs; ++d)
        if (sb_pairs % d == 0)
            suites = d;
    spec.topology.suites = suites;
    spec.topology.msbsPerSuite = 2;
    spec.topology.sbsPerMsb = sb_pairs / suites;
    spec.topology.rppsPerSb = 4;
    spec.topology.racksPerRpp = 4;

    // Eight services, population/8 instances each, spanning the shape
    // space: day-peaking LC (web, cache, search), flat batch (hadoop),
    // day-peaking dev, night-peaking storage (db, lab) and an evening
    // peak (instagram).  From 8192 instances up the mix widens to the
    // full sixteen-service catalog (population/16 each) — a 10k+ fleet
    // with only eight shapes clusters unrealistically cleanly, and the
    // wider mix keeps the placement-scaling benches honest.  Smaller
    // fleets keep the original eight-service mix unchanged (the 4096
    // golden fleet digest depends on it).
    if (population >= 8192) {
        const int per_service = population / 16;
        for (auto profile :
             {webFrontend(), cache(), search(), hadoop(), devPool(),
              dbBackend(), labServer(), instagram(), searchIndex(),
              mobileDev(), dbSecondary(), batchJob(), photoStorage(),
              webFrontend(), cache(), hadoop()})
            spec.services.push_back({std::move(profile), per_service});
        return spec;
    }
    const int per_service = population / 8;
    for (auto profile :
         {webFrontend(), cache(), search(), hadoop(), devPool(),
          dbBackend(), labServer(), instagram()})
        spec.services.push_back({std::move(profile), per_service});
    return spec;
}

} // namespace sosim::workload

#include "fault_plan.h"

#include <algorithm>
#include <limits>

#include "util/error.h"
#include "util/hash.h"
#include "util/parse.h"
#include "util/rng.h"

namespace sosim::fault {

namespace {

/**
 * Draw a length with the given mean: uniform on [1, 2*mean - 1].  Keeps
 * the schedule deterministic and the mean exact without the tail of a
 * geometric draw.
 */
std::size_t
drawLength(util::Rng &rng, double mean)
{
    const auto hi = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(2.0 * mean) - 1);
    return static_cast<std::size_t>(rng.uniformInt(1, hi));
}

} // namespace

FaultProfile
faultProfile(const std::string &name)
{
    FaultProfile p;
    p.name = name;
    if (name == "none") {
        return p;
    }
    if (name == "mild") {
        p.sampleLossRate = 0.01;
        p.stuckSensorRate = 0.02;
        p.clockSkewRate = 0.01;
        return p;
    }
    if (name == "harsh") {
        p.sampleLossRate = 0.05;
        p.stuckSensorRate = 0.05;
        p.clockSkewRate = 0.03;
        p.traceLossRate = 0.02;
        p.breakerTrips = 1;
        p.deratedNodes = 1;
        return p;
    }
    SOSIM_REQUIRE(false, "unknown fault profile '" + name +
                             "' (none|mild|harsh)");
}

FaultPlan
FaultPlan::build(std::uint64_t seed, const FaultProfile &profile,
                 TraceShape shape)
{
    SOSIM_REQUIRE(profile.sampleLossRate >= 0.0 &&
                      profile.sampleLossRate < 1.0,
                  "FaultPlan: sampleLossRate must be in [0, 1)");

    FaultPlan plan;
    plan.seed_ = seed;
    plan.profile_ = profile;
    plan.shape_ = shape;
    if (shape.instances == 0 || shape.samplesPerTrace == 0)
        return plan;

    util::Rng rng(seed);
    const auto n = static_cast<std::int64_t>(shape.instances);
    const auto len = static_cast<std::int64_t>(shape.samplesPerTrace);

    // Dropout gaps: draw until the sample-loss quota is met.  Gaps may
    // overlap; injection counts actual NaN'd samples, so the realized
    // rate can undershoot the quota slightly — fine for a fault model.
    const auto quota = static_cast<std::size_t>(
        profile.sampleLossRate *
        static_cast<double>(shape.instances * shape.samplesPerTrace));
    std::size_t scheduled = 0;
    while (scheduled < quota) {
        SampleGap gap;
        gap.instance = static_cast<std::size_t>(rng.uniformInt(0, n - 1));
        gap.firstSample =
            static_cast<std::size_t>(rng.uniformInt(0, len - 1));
        gap.length = std::min(drawLength(rng, kMeanGapSamples),
                              shape.samplesPerTrace - gap.firstSample);
        plan.gaps_.push_back(gap);
        scheduled += gap.length;
    }

    // Per-instance faults: one Bernoulli draw per instance and fault
    // kind, in instance order, so the schedule is stable under any
    // iteration of the plan.
    for (std::size_t i = 0; i < shape.instances; ++i) {
        if (rng.chance(profile.stuckSensorRate)) {
            StuckSensor stuck;
            stuck.instance = i;
            stuck.firstSample =
                static_cast<std::size_t>(rng.uniformInt(0, len - 1));
            stuck.length =
                std::min(drawLength(rng, kMeanStuckSamples),
                         shape.samplesPerTrace - stuck.firstSample);
            plan.stuck_.push_back(stuck);
        }
        if (rng.chance(profile.clockSkewRate)) {
            ClockSkew skew;
            skew.instance = i;
            skew.offsetSamples = static_cast<int>(
                rng.uniformInt(-kMaxSkewSamples, kMaxSkewSamples));
            if (skew.offsetSamples != 0)
                plan.skews_.push_back(skew);
        }
        if (rng.chance(profile.traceLossRate))
            plan.losses_.push_back(TraceLoss{i});
    }

    // Power events.
    for (int e = 0; e < profile.breakerTrips; ++e) {
        PowerEvent ev;
        ev.kind = PowerEventKind::BreakerTrip;
        ev.nodeOrdinal = static_cast<std::size_t>(
            rng.uniformInt(0, std::numeric_limits<std::int64_t>::max()));
        ev.atSample = static_cast<std::size_t>(rng.uniformInt(0, len - 1));
        ev.durationSamples =
            std::min(drawLength(rng, kMeanTripSamples),
                     shape.samplesPerTrace - ev.atSample);
        plan.events_.push_back(ev);
    }
    for (int e = 0; e < profile.deratedNodes; ++e) {
        PowerEvent ev;
        ev.kind = PowerEventKind::Derate;
        ev.nodeOrdinal = static_cast<std::size_t>(
            rng.uniformInt(0, std::numeric_limits<std::int64_t>::max()));
        ev.atSample = static_cast<std::size_t>(rng.uniformInt(0, len - 1));
        ev.factor = kDerateFactor;
        plan.events_.push_back(ev);
    }
    return plan;
}

std::size_t
FaultPlan::scheduledGapSamples() const
{
    std::size_t total = 0;
    for (const auto &gap : gaps_)
        total += gap.length;
    return total;
}

std::uint64_t
FaultPlan::fingerprint() const
{
    std::uint64_t h = util::kFnvOffset;
    h = util::mixWord(h, seed_);
    h = util::mixWord(h, shape_.instances);
    h = util::mixWord(h, shape_.samplesPerTrace);
    h = util::fnv1a64(profile_.name.data(), profile_.name.size(), h);
    for (const auto &g : gaps_) {
        h = util::mixWord(h, g.instance);
        h = util::mixWord(h, g.firstSample);
        h = util::mixWord(h, g.length);
    }
    for (const auto &s : stuck_) {
        h = util::mixWord(h, s.instance);
        h = util::mixWord(h, s.firstSample);
        h = util::mixWord(h, s.length);
    }
    for (const auto &s : skews_) {
        const auto offset = static_cast<std::int64_t>(s.offsetSamples);
        h = util::mixWord(h, s.instance);
        h = util::mixWord(h, static_cast<std::uint64_t>(offset));
    }
    for (const auto &l : losses_)
        h = util::mixWord(h, l.instance);
    for (const auto &e : events_) {
        h = util::mixWord(h, static_cast<std::uint64_t>(e.kind));
        h = util::mixWord(h, e.nodeOrdinal);
        h = util::mixWord(h, e.atSample);
        h = util::mixWord(h, e.durationSamples);
        h = util::mixWord(h, util::doubleBits(e.factor));
    }
    return h;
}

FaultPlanSpec
parseFaultPlanSpec(const std::string &text, const std::string &tag)
{
    SOSIM_REQUIRE(!text.empty(), tag + ": empty spec");
    FaultPlanSpec spec;
    const auto colon = text.find(':');
    const std::string seed_text = text.substr(0, colon);
    spec.seed = util::parseNumber<std::uint64_t>(seed_text, tag + " seed");
    if (colon != std::string::npos) {
        spec.profile = text.substr(colon + 1);
        // Validate the name eagerly.
        util::withTag(tag, [&] { faultProfile(spec.profile); });
    }
    return spec;
}

} // namespace sosim::fault

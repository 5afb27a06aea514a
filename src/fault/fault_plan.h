#ifndef SOSIM_FAULT_FAULT_PLAN_H
#define SOSIM_FAULT_FAULT_PLAN_H

/**
 * @file
 * Deterministic fault scheduling.
 *
 * The paper's pipeline assumes clean 1-sample/min traces and a static
 * power tree; section 3.3 motivates week-averaging precisely because
 * production telemetry has "significant unusual short-term variations".
 * A FaultPlan makes those variations first-class and reproducible: it is
 * a pure function of (seed, profile, trace shape) — like util::Rng, two
 * builds with equal inputs yield byte-identical schedules — that decides
 * *what* goes wrong and *when*:
 *
 *   - sample dropout: runs of NaN samples in an instance trace,
 *   - stuck-at sensors: a window where the meter repeats one reading,
 *   - clock skew: an instance's trace rotated by a few samples,
 *   - whole-instance trace loss: the collection plane lost the host,
 *   - power events: breaker trips and node derating at a timestep.
 *
 * A FaultProfile sets how often each fault happens; how long a gap, a
 * stuck window or a trip lasts, how far a clock skews and how deep a
 * derating cuts are fixed constants (kMeanGapSamples and friends
 * below), since every preset uses the same shapes.
 *
 * The plan only schedules; src/fault/inject.h applies it to traces and
 * power trees, and src/trace/repair.h is the recovery side.  Keeping
 * scheduling separate from application means a plan can be fingerprinted
 * and compared across runs (the determinism ctest does exactly that)
 * and the same plan can degrade both the training and the evaluation
 * copy of a datacenter.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace sosim::fault {

/** Mean dropout gap length in samples. */
inline constexpr double kMeanGapSamples = 6.0;
/** Mean stuck-at window length in samples. */
inline constexpr double kMeanStuckSamples = 24.0;
/** Maximum clock-skew magnitude in samples (either direction). */
inline constexpr int kMaxSkewSamples = 3;
/** Mean blackout duration of a breaker trip, in samples. */
inline constexpr double kMeanTripSamples = 12.0;
/** Budget multiplier applied by a derating event. */
inline constexpr double kDerateFactor = 0.85;

/** Fault intensity knobs; preset instances come from faultProfile(). */
struct FaultProfile {
    /** Profile name as parsed/printed ("none", "mild", "harsh", ...). */
    std::string name = "custom";
    /** Target fraction of all samples lost to dropout gaps, in [0, 1). */
    double sampleLossRate = 0.0;
    /** Fraction of instances that get one stuck-at window. */
    double stuckSensorRate = 0.0;
    /** Fraction of instances whose trace is rotated by clock skew. */
    double clockSkewRate = 0.0;
    /** Fraction of instances whose whole trace is lost (all-NaN). */
    double traceLossRate = 0.0;
    /** Number of breaker-trip events scheduled on the power tree. */
    int breakerTrips = 0;
    /** Number of node-derating events scheduled on the power tree. */
    int deratedNodes = 0;
};

/**
 * Named preset profiles:
 *   - "none":  no faults (useful as an ablation baseline),
 *   - "mild":  ~1% sample loss, occasional stuck sensor, no power events,
 *   - "harsh": ~5% sample loss, stuck sensors, skew, one lost trace per
 *              ~50 instances, one breaker trip and one derated node.
 * Fatal on an unknown name.
 */
FaultProfile faultProfile(const std::string &name);

/** A run of dropped (NaN) samples in one instance trace. */
struct SampleGap {
    std::size_t instance = 0;
    std::size_t firstSample = 0;
    std::size_t length = 0;
};

/** A window where one instance's sensor repeats a single reading. */
struct StuckSensor {
    std::size_t instance = 0;
    std::size_t firstSample = 0;
    std::size_t length = 0;
};

/** A per-instance clock skew: the trace is rotated by offsetSamples. */
struct ClockSkew {
    std::size_t instance = 0;
    /** Positive = the instance reports late (samples shift right). */
    int offsetSamples = 0;
};

/** Whole-trace loss of one instance (every sample becomes NaN). */
struct TraceLoss {
    std::size_t instance = 0;
};

/** What a power event does to its node. */
enum class PowerEventKind {
    /** The node's breaker opens: its subtree blacks out for a while. */
    BreakerTrip,
    /** The node's budget is derated by `factor` (maintenance, thermal). */
    Derate,
};

/**
 * A scheduled power-tree event.  The plan does not know the tree, so the
 * target is an ordinal that injectors resolve modulo the relevant node
 * list (racks for trips, any budgeted level for derating) — the same
 * plan therefore applies meaningfully to any topology.
 */
struct PowerEvent {
    PowerEventKind kind = PowerEventKind::BreakerTrip;
    /** Resolved as nodeOrdinal % candidate_nodes.size() by injectors. */
    std::size_t nodeOrdinal = 0;
    /** Timestep (sample index) at which the event fires. */
    std::size_t atSample = 0;
    /** Blackout duration in samples (BreakerTrip only). */
    std::size_t durationSamples = 0;
    /** Budget multiplier (Derate only). */
    double factor = 1.0;
};

/** Shape of the trace population a plan is built for. */
struct TraceShape {
    std::size_t instances = 0;
    std::size_t samplesPerTrace = 0;
};

/**
 * A complete, immutable fault schedule.  Build once per experiment;
 * identical (seed, profile, shape) inputs produce byte-identical
 * schedules and therefore identical fingerprints.
 */
class FaultPlan
{
  public:
    /** Schedule faults for a trace population. */
    static FaultPlan build(std::uint64_t seed, const FaultProfile &profile,
                           TraceShape shape);

    std::uint64_t seed() const { return seed_; }
    const FaultProfile &profile() const { return profile_; }
    const TraceShape &shape() const { return shape_; }

    const std::vector<SampleGap> &gaps() const { return gaps_; }
    const std::vector<StuckSensor> &stuckSensors() const { return stuck_; }
    const std::vector<ClockSkew> &clockSkews() const { return skews_; }
    const std::vector<TraceLoss> &traceLosses() const { return losses_; }
    const std::vector<PowerEvent> &powerEvents() const { return events_; }

    /** Scheduled dropout samples (sum of gap lengths, post-clipping). */
    std::size_t scheduledGapSamples() const;

    /**
     * FNV-1a hash over the full schedule (every event's every field).
     * Two plans are byte-identical iff their fingerprints match — this
     * is what the determinism ctest pins.
     */
    std::uint64_t fingerprint() const;

    /** True when the plan schedules nothing at all. */
    bool empty() const
    {
        return gaps_.empty() && stuck_.empty() && skews_.empty() &&
               losses_.empty() && events_.empty();
    }

  private:
    std::uint64_t seed_ = 0;
    FaultProfile profile_;
    TraceShape shape_;
    std::vector<SampleGap> gaps_;
    std::vector<StuckSensor> stuck_;
    std::vector<ClockSkew> skews_;
    std::vector<TraceLoss> losses_;
    std::vector<PowerEvent> events_;
};

/** Parsed form of the CLI's `--fault-plan seed[:profile]` argument. */
struct FaultPlanSpec {
    std::uint64_t seed = 0;
    /** Profile name; defaults to "harsh" when omitted. */
    std::string profile = "harsh";
};

/**
 * Parse "seed" or "seed:profile" (e.g. "7", "7:mild").  Fatal on an
 * empty spec, a non-numeric seed or an unknown profile name; `tag` names
 * the caller's flag in the message (e.g. "--fault-plan").
 */
FaultPlanSpec parseFaultPlanSpec(const std::string &text,
                                 const std::string &tag);

} // namespace sosim::fault

#endif // SOSIM_FAULT_FAULT_PLAN_H

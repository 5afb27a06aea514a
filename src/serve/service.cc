#include "service.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "core/fingerprints.h"
#include "obs/obs.h"
#include "serve/checkpoint.h"
#include "util/error.h"
#include "util/hash.h"

namespace sosim::serve {

Service::Service(const power::PowerTree &tree,
                 std::vector<std::size_t> service_of,
                 power::Assignment initial, int interval_minutes,
                 ServeConfig config)
    : tree_(tree), serviceOf_(std::move(service_of)),
      config_(std::move(config)),
      ring_(serviceOf_.size(), config_.window, interval_minutes),
      monitor_(tree, config_.monitor), remapper_(tree, config_.remap),
      placer_(tree, config_.placement),
      assignment_(std::move(initial)), digest_(util::kFnvOffset)
{
    SOSIM_REQUIRE(config_.epochTicks >= 1,
                  "serve::Service: epochTicks must be >= 1");
    SOSIM_REQUIRE(config_.maxEpochQueue >= 1,
                  "serve::Service: maxEpochQueue must be >= 1");
    SOSIM_REQUIRE(assignment_.size() == serviceOf_.size(),
                  "serve::Service: assignment / service_of size mismatch");
    shapeFp_ = computeShapeFingerprint();
}

void
Service::advanceTo(std::uint64_t tick)
{
    for (std::uint64_t next = ring_.frontier() + 1; next <= tick;
         ++next) {
        if (next % config_.epochTicks == 0) {
            // Materialize BEFORE stepping the ring into the boundary
            // tick: the snapshot must cover only fully-fed ticks, not
            // the about-to-be-cleared slot of tick `next`.
            EpochSnapshot snap;
            snap.epoch = next / config_.epochTicks;
            snap.lastTick = ring_.frontier();
            snap.traces = ring_.snapshotWindow();
            queue_.push_back(std::move(snap));
            if (queue_.size() > config_.maxEpochQueue) {
                const std::uint64_t shed_epoch = queue_.front().epoch;
                queue_.pop_front();
                ++shed_;
                SOSIM_COUNT("serve.epoch.shed");
                SOSIM_EVENT(.kind = obs::EventKind::EpochShed,
                            .a = shed_epoch, .b = queue_.size());
            }
            SOSIM_GAUGE_SET("serve.epoch.queue_depth",
                            static_cast<double>(queue_.size()));
        }
        ring_.advanceTo(next);
    }
}

std::vector<EpochResult>
Service::processReadyEpochs()
{
    ring_.publishCounters();
    std::vector<EpochResult> results;
    while (!queue_.empty()) {
        EpochSnapshot snap = std::move(queue_.front());
        queue_.pop_front();
        results.push_back(processEpoch(std::move(snap)));
    }
    SOSIM_GAUGE_SET("serve.epoch.queue_depth", 0.0);
    return results;
}

EpochResult
Service::processEpoch(EpochSnapshot snapshot)
{
    SOSIM_SPAN("serve.process_epoch");
    const auto t0 = std::chrono::steady_clock::now();
    core::OwnedWeek week{std::move(snapshot.traces), {}};
    const core::MonitorMeasurement m =
        core::measureWeek(tree_, config_.monitor, week, assignment_);
    const double eval_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    EpochResult r;
    r.epoch = snapshot.epoch;
    r.lastTick = snapshot.lastTick;
    r.observation = monitor_.ingest(m, eval_seconds);

    // Unlike the batch pipeline (which only records recommendations),
    // the serving loop acts on them: a Remap refines the live
    // assignment, a Replace re-derives it.  Both need gap-free traces:
    // the monitor repaired the snapshot's gapped rows in place, and
    // their pre-repair validity gates swap candidacy; a clean week
    // carries no validity and is refined ungated (an all-valid vector
    // would gate nothing).
    const std::vector<double> *validity =
        week.validBefore.empty() ? nullptr : &week.validBefore;
    if (r.observation.action == core::MonitorAction::Remap) {
        const auto swaps =
            remapper_.refine(assignment_, week.traces, validity);
        r.swaps = swaps.size();
        if (!swaps.empty())
            monitor_.placementUpdated();
    } else if (r.observation.action == core::MonitorAction::Replace) {
        assignment_ = placer_.place(week.traces, serviceOf_);
        monitor_.placementUpdated();
        r.replaced = true;
    }

    // The replay-equality digest: every observable outcome of the epoch
    // except wall-clock time (evalSeconds is deliberately excluded so
    // restored runs match unbroken ones bit for bit).
    digest_ = util::hashCombine(digest_, r.epoch);
    digest_ = util::hashCombine(
        digest_, util::doubleBits(r.observation.fragmentationRatio));
    digest_ = util::hashCombine(
        digest_, static_cast<std::uint64_t>(r.observation.action));
    digest_ = util::hashCombine(digest_,
                                 r.observation.degradedData ? 1u : 0u);
    digest_ = util::hashCombine(digest_,
                                 r.observation.excludedInstances);
    digest_ = util::hashCombine(digest_, r.observation.repairedSamples);
    digest_ = util::hashCombine(digest_, r.swaps);
    digest_ =
        util::hashCombine(digest_, core::fingerprintAssignment(
                                        assignment_));

    committedEpoch_ = r.epoch;
    SOSIM_COUNT("serve.epoch.committed");
    SOSIM_OBSERVE("serve.epoch.eval_seconds", eval_seconds);
    SOSIM_EVENT(.kind = obs::EventKind::EpochCommit,
                .code = r.observation.degradedData ? 1u : 0u,
                .a = r.epoch, .b = r.lastTick,
                .c = static_cast<std::uint64_t>(r.observation.action),
                .d = r.swaps, .x = r.observation.fragmentationRatio);

    if (!config_.checkpointDir.empty())
        writeCheckpoint();
    return r;
}

void
Service::writeCheckpoint()
{
    PayloadWriter w;
    w.u64(ring_.frontier());
    w.u64(committedEpoch_);
    w.u64(digest_);
    w.u64(shed_);
    w.f64Vector(ring_.slotValues());
    w.u64Vector(ring_.slotFillTicks());
    w.u64Vector(ring_.counterValues());

    std::vector<std::uint64_t> assign(assignment_.size());
    for (std::size_t i = 0; i < assignment_.size(); ++i)
        assign[i] = static_cast<std::uint64_t>(assignment_[i]);
    w.u64Vector(assign);

    const auto baseline = monitor_.baselineState();
    w.f64Vector(baseline.window);
    w.u64(baseline.weekCounter);

    w.u64(queue_.size());
    for (const EpochSnapshot &snap : queue_) {
        w.u64(snap.epoch);
        w.u64(snap.lastTick);
        std::vector<double> flat;
        flat.reserve(snap.traces.size() * config_.window);
        for (const auto &ts : snap.traces)
            flat.insert(flat.end(), ts.samples().begin(),
                        ts.samples().end());
        w.f64Vector(flat);
    }

    std::string error;
    if (!writeCheckpointFile(config_.checkpointDir, shapeFp_,
                             committedEpoch_, w.bytes(), &error))
        // A failed commit is survivable — the previous slot stays valid
        // and restore simply rewinds one epoch further.
        SOSIM_COUNT("serve.checkpoint.write_failed");
}

bool
Service::restoreLatest()
{
    if (config_.checkpointDir.empty())
        return false;
    const auto ckpt = latestCheckpoint(config_.checkpointDir, shapeFp_);
    if (!ckpt)
        return false;

    // Parse everything into locals first; any malformed field leaves
    // the service untouched.
    PayloadReader r(ckpt->payload);
    std::uint64_t frontier = 0, committed = 0, digest = 0, shed = 0;
    std::vector<double> slots;
    std::vector<std::uint64_t> fills, counters, assign;
    std::vector<double> baseline_window;
    std::uint64_t week_counter = 0, queue_count = 0;
    if (!r.u64(frontier) || !r.u64(committed) || !r.u64(digest) ||
        !r.u64(shed) || !r.f64Vector(slots) || !r.u64Vector(fills) ||
        !r.u64Vector(counters) || !r.u64Vector(assign) ||
        !r.f64Vector(baseline_window) || !r.u64(week_counter) ||
        !r.u64(queue_count))
        return false;
    const std::size_t cells = ring_.instances() * ring_.window();
    // The monitor keeps at most baselineWindowWeeks healthy ratios (each
    // finite and > 0), one per week it counted, and counts one week per
    // processed epoch.
    if (assign.size() != serviceOf_.size() ||
        queue_count > config_.maxEpochQueue ||
        baseline_window.size() > config_.monitor.baselineWindowWeeks ||
        week_counter < baseline_window.size() || week_counter > committed)
        return false;
    for (const double ratio : baseline_window)
        if (!std::isfinite(ratio) || ratio <= 0.0)
            return false;
    for (const std::uint64_t node : assign)
        if (node >= tree_.nodeCount() ||
            tree_.node(node).level != power::Level::Rack)
            return false;
    // Queued epochs rise strictly above the committed one, and advanceTo
    // takes each snapshot at the tick before its boundary, behind the
    // frontier: lastTick == epoch * epochTicks - 1, checked without
    // overflow.
    const std::uint64_t epoch_ticks = config_.epochTicks;
    std::deque<EpochSnapshot> queue;
    for (std::uint64_t i = 0; i < queue_count; ++i) {
        EpochSnapshot snap;
        std::vector<double> flat;
        if (!r.u64(snap.epoch) || !r.u64(snap.lastTick) ||
            !r.f64Vector(flat) || flat.size() != cells ||
            snap.epoch <= (queue.empty() ? committed : queue.back().epoch) ||
            snap.lastTick >= frontier ||
            snap.lastTick / epoch_ticks + 1 != snap.epoch ||
            snap.lastTick % epoch_ticks != epoch_ticks - 1)
            return false;
        snap.traces.reserve(ring_.instances());
        for (std::size_t inst = 0; inst < ring_.instances(); ++inst) {
            const auto begin =
                flat.begin() +
                static_cast<std::ptrdiff_t>(inst * ring_.window());
            snap.traces.emplace_back(
                std::vector<double>(
                    begin,
                    begin + static_cast<std::ptrdiff_t>(ring_.window())),
                ring_.intervalMinutes());
        }
        queue.push_back(std::move(snap));
    }
    // The ring validates its own fields; it is the first thing
    // restored, so a refusal still leaves the service untouched.
    if (!r.exhausted() ||
        !ring_.restoreState(frontier, slots, fills, counters))
        return false;

    for (std::size_t i = 0; i < assign.size(); ++i)
        assignment_[i] = static_cast<power::NodeId>(assign[i]);
    core::FragmentationMonitor::BaselineState baseline;
    baseline.window = std::move(baseline_window);
    baseline.weekCounter = static_cast<std::size_t>(week_counter);
    monitor_.restoreBaselineState(baseline);
    digest_ = digest;
    committedEpoch_ = committed;
    shed_ = shed;
    queue_ = std::move(queue);

    SOSIM_COUNT("serve.checkpoint.restored");
    SOSIM_EVENT(.kind = obs::EventKind::CheckpointRestore,
                .a = committed, .b = frontier);
    return true;
}

std::uint64_t
Service::computeShapeFingerprint() const
{
    std::uint64_t h = util::fingerprintString("serve-shape");
    h = util::hashCombine(h, ring_.instances());
    h = util::hashCombine(h, config_.window);
    h = util::hashCombine(h, config_.epochTicks);
    h = util::hashCombine(h, config_.maxEpochQueue);
    h = util::hashCombine(
        h, static_cast<std::uint64_t>(ring_.intervalMinutes()));
    h = util::hashCombine(
        h, core::fingerprintMonitorMeasureConfig(config_.monitor));
    h = util::hashCombine(h, config_.monitor.baselineWindowWeeks);
    h = util::hashCombine(h,
                           util::doubleBits(config_.monitor.remapThreshold));
    h = util::hashCombine(
        h, util::doubleBits(config_.monitor.replaceThreshold));
    // The widening factor is a constant now; hashing it where its
    // former field was keeps the fingerprint, so checkpoints written by
    // earlier builds still restore.
    h = util::hashCombine(h, util::doubleBits(core::kDegradedThresholdFactor));
    h = util::hashCombine(h, core::fingerprintRemapConfig(config_.remap));
    h = util::hashCombine(h,
                           core::fingerprintEmbedConfig(config_.placement));
    h = util::hashCombine(
        h, core::fingerprintDistributeConfig(config_.placement));
    h = util::hashCombine(h, core::fingerprintTree(tree_));
    h = util::hashCombine(h, core::fingerprintServices(serviceOf_));
    return h;
}

} // namespace sosim::serve

/**
 * @file
 * Chaos soak for the serve layer: one deterministic gauntlet that
 * interleaves everything the serving loop promises to survive —
 * parallel ingest bursts, fault-degraded telemetry (NaN silences, stuck
 * sensors, clock skew from a fault::FaultPlan), a seeded garbage stream
 * (duplicates, stale/future ticks, non-finite and negative watts,
 * unknown instances), late deliveries, epoch backpressure sheds, and
 * repeated process death with checkpoint restore — then asserts the
 * replay-equality contract: the unbroken run and the 3×kill/restore run
 * end with bit-identical digests at every thread count.
 *
 *   serve_soak [--seed N] [--instances N] [--ticks N] [--window N]
 *              [--epoch-ticks N] [--profile NAME]
 *              [--checkpoint-dir DIR] [--flight-record FILE]
 *
 * Exit code 0 = every invariant held; any violation prints a CHECK line
 * and exits 1.  The binary runs the full matrix itself (threads {1, 4}
 * × {unbroken, kill/restore}), so one ctest invocation — also run under
 * ASan and TSan in CI — covers the whole contract.  --flight-record
 * writes the JSONL decision journal, which CI uploads on failure.
 */

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "baseline/oblivious.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "obs/events.h"
#include "obs/trace_export.h"
#include "power/power_tree.h"
#include "serve/service.h"
#include "trace/time_series.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "util/rng.h"

namespace {

using namespace sosim;

#define CHECK(cond, what)                                                \
    do {                                                                 \
        if (!(cond)) {                                                   \
            std::cerr << "CHECK failed: " << what << " (" << #cond       \
                      << ") at " << __FILE__ << ":" << __LINE__          \
                      << "\n";                                           \
            std::exit(1);                                                \
        }                                                                \
    } while (0)

struct Options {
    std::uint64_t seed = 2018;
    std::size_t instances = 128;
    std::uint64_t ticks = 110;
    std::size_t window = 24;
    std::size_t epochTicks = 12;
    std::string profile = "harsh";
    std::string checkpointDir;
    std::string flightRecord;
};

/** The state of one soak run, for cross-run comparison. */
struct Outcome {
    std::uint64_t digest = 0;
    std::uint64_t accepted = 0;
    std::uint64_t late = 0;
    std::uint64_t sheds = 0;
    std::uint64_t restores = 0;
    std::uint64_t committedEpoch = 0;
};

/**
 * Deterministic delayed-delivery schedule: when true, instance i's
 * sample for tick t is withheld at tick t and delivered two ticks later
 * (an AcceptedLate if still inside the window).
 */
bool
deliverLate(std::size_t instance, std::uint64_t tick)
{
    return (instance * 31 + tick) % 17 == 0;
}

/** Should the driver drain the epoch queue at this tick?  A stall zone
 *  in the middle third lets boundary snapshots pile up and forces
 *  shed-oldest backpressure. */
bool
processTick(std::uint64_t tick, const Options &opt)
{
    const std::uint64_t stall_lo = opt.ticks / 3;
    const std::uint64_t stall_hi =
        stall_lo + std::uint64_t(opt.epochTicks) * 3;
    if (tick >= stall_lo && tick < stall_hi)
        return false;
    return tick % 5 == 0;
}

/** The fault-degraded telemetry every run streams from: a positive
 *  per-instance diurnal base, damaged by the seeded FaultPlan (NaN
 *  gaps and whole-trace losses become sensor silence; stuck-at and
 *  skew faults stay finite and flow through ingest normally). */
std::vector<trace::TimeSeries>
buildFeed(const Options &opt)
{
    util::Rng rng(opt.seed);
    std::vector<trace::TimeSeries> traces;
    traces.reserve(opt.instances);
    for (std::size_t i = 0; i < opt.instances; ++i) {
        const double phase = rng.uniform(0.0, 6.28);
        const double amp = rng.uniform(0.2, 0.6);
        std::vector<double> samples(opt.ticks);
        for (std::uint64_t t = 0; t < opt.ticks; ++t)
            samples[t] =
                1.0 + amp * std::sin(double(t) * 0.23 + phase) +
                0.05 * double(i % 7);
        traces.emplace_back(std::move(samples), 5);
    }
    const auto plan = fault::FaultPlan::build(
        opt.seed, fault::faultProfile(opt.profile),
        {opt.instances, opt.ticks});
    return fault::injectedCopy(std::move(traces), plan).traces;
}

serve::ServeConfig
serveConfig(const Options &opt, const std::string &checkpoint_dir)
{
    serve::ServeConfig config;
    config.window = opt.window;
    config.epochTicks = opt.epochTicks;
    config.maxEpochQueue = 2; // small on purpose: the stall must shed
    // Zero remap threshold: every healthy epoch with a baseline acts,
    // so the soak exercises the remap path, not just measurement.
    config.monitor.remapThreshold = 0.0;
    config.monitor.replaceThreshold = 10.0;
    config.monitor.baselineWindowWeeks = 2;
    config.checkpointDir = checkpoint_dir;
    return config;
}

/**
 * Stream ticks [from, to] into the service: a parallel on-time burst
 * (distinct instances — the ring's documented concurrency contract),
 * then the serial late deliveries and the garbage stream, then an epoch
 * drain when the schedule says so.
 */
void
drive(serve::Service &svc, const std::vector<trace::TimeSeries> &feed,
      std::uint64_t from, std::uint64_t to, const Options &opt)
{
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    for (std::uint64_t t = from; t <= to; ++t) {
        svc.advanceTo(t);
        util::parallelFor(opt.instances, [&](std::size_t i) {
            const double w = feed[i][t];
            if (std::isfinite(w) && !deliverLate(i, t))
                svc.ingest({t, i, w});
        });
        // Delayed deliveries: tick t-2 samples arriving two ticks late.
        if (t >= 2) {
            for (std::size_t i = 0; i < opt.instances; ++i) {
                const double w = feed[i][t - 2];
                if (std::isfinite(w) && deliverLate(i, t - 2))
                    svc.ingest({t - 2, i, w});
            }
        }
        // The garbage stream: one of each malformation per tick, all
        // deterministic functions of t so every run sees the same abuse.
        svc.ingest({t, opt.instances + 3, 1.0});       // unknown
        svc.ingest({t, t % opt.instances, kNaN});      // non-finite
        svc.ingest({t, (t + 1) % opt.instances, -2.0}); // negative
        svc.ingest({t + opt.window, 0, 1.0});          // future
        if (t > opt.window + 1)
            svc.ingest({t - opt.window - 1, 1, 1.0}); // stale
        {
            // Re-send a sample that was definitely stored this tick.
            for (std::size_t i = 0; i < opt.instances; ++i) {
                if (std::isfinite(feed[i][t]) && !deliverLate(i, t)) {
                    svc.ingest({t, i, feed[i][t]}); // duplicate
                    break;
                }
            }
        }
        if (processTick(t, opt))
            svc.processReadyEpochs();
    }
}

Outcome
outcomeOf(const serve::Service &svc, std::uint64_t restores)
{
    Outcome o;
    o.digest = svc.digest();
    o.accepted = svc.ring().acceptedCount();
    o.late = svc.ring().lateCount();
    o.sheds = svc.shedCount();
    o.restores = restores;
    o.committedEpoch = svc.committedEpoch();
    return o;
}

/** One unbroken run at a fixed thread count. */
Outcome
runUnbroken(const Options &opt,
            const std::vector<trace::TimeSeries> &feed,
            std::size_t threads)
{
    util::setThreadCount(threads);
    power::PowerTree tree(power::TopologySpec{});
    std::vector<std::size_t> service_of(opt.instances);
    for (std::size_t i = 0; i < opt.instances; ++i)
        service_of[i] = i % 4;
    auto initial = baseline::obliviousPlacement(tree, service_of);
    serve::Service svc(tree, service_of, initial, 5,
                       serveConfig(opt, ""));
    drive(svc, feed, 0, opt.ticks - 1, opt);
    svc.processReadyEpochs();
    util::setThreadCount(0);
    return outcomeOf(svc, 0);
}

/**
 * The same scenario with three process deaths: the Service object is
 * destroyed mid-run at fixed ticks (taking its un-checkpointed tail
 * state with it), rebuilt cold, restored from the checkpoint directory,
 * and the deterministic feed replayed from ring().frontier() + 1.
 */
Outcome
runKillRestore(const Options &opt,
               const std::vector<trace::TimeSeries> &feed,
               std::size_t threads, const std::string &dir)
{
    util::setThreadCount(threads);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    power::PowerTree tree(power::TopologySpec{});
    std::vector<std::size_t> service_of(opt.instances);
    for (std::size_t i = 0; i < opt.instances; ++i)
        service_of[i] = i % 4;
    auto initial = baseline::obliviousPlacement(tree, service_of);

    const std::uint64_t kills[] = {opt.ticks / 4, opt.ticks / 2,
                                   opt.ticks * 3 / 4};
    std::uint64_t restores = 0;
    std::uint64_t resume = 0;
    for (const std::uint64_t kill : kills) {
        serve::Service svc(tree, service_of, initial, 5,
                           serveConfig(opt, dir));
        if (svc.restoreLatest()) {
            ++restores;
            resume = svc.ring().frontier() + 1;
        }
        drive(svc, feed, resume, kill, opt);
        // Scope exit = process death with un-checkpointed tail state.
    }
    serve::Service svc(tree, service_of, initial, 5,
                       serveConfig(opt, dir));
    CHECK(svc.restoreLatest(), "final restore found no checkpoint");
    ++restores;
    drive(svc, feed, svc.ring().frontier() + 1, opt.ticks - 1, opt);
    svc.processReadyEpochs();
    util::setThreadCount(0);
    return outcomeOf(svc, restores);
}

void
checkRejectCoverage(const serve::StreamRing &ring)
{
    using serve::IngestStatus;
    for (const auto reason :
         {IngestStatus::RejectedStale, IngestStatus::RejectedFuture,
          IngestStatus::RejectedDuplicate,
          IngestStatus::RejectedNonFinite,
          IngestStatus::RejectedNegative,
          IngestStatus::RejectedUnknownInstance}) {
        CHECK(ring.rejectedCount(reason) > 0,
              "no rejects of class " + serve::ingestStatusName(reason));
    }
    CHECK(!ring.quarantined().empty(), "quarantine is empty");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "serve_soak: " << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        auto number = [&]() -> std::uint64_t {
            const std::string text = next();
            try {
                return util::parseNumber<std::uint64_t>(text, arg);
            } catch (const util::FatalError &e) {
                std::cerr << "serve_soak: " << e.what() << "\n";
                std::exit(2);
            }
        };
        if (arg == "--seed")
            opt.seed = number();
        else if (arg == "--instances")
            opt.instances = std::size_t(number());
        else if (arg == "--ticks")
            opt.ticks = number();
        else if (arg == "--window")
            opt.window = std::size_t(number());
        else if (arg == "--epoch-ticks")
            opt.epochTicks = std::size_t(number());
        else if (arg == "--profile")
            opt.profile = next();
        else if (arg == "--checkpoint-dir")
            opt.checkpointDir = next();
        else if (arg == "--flight-record")
            opt.flightRecord = next();
        else {
            std::cerr << "usage: serve_soak [--seed N] [--instances N] "
                         "[--ticks N] [--window N] [--epoch-ticks N] "
                         "[--profile NAME] [--checkpoint-dir DIR] "
                         "[--flight-record FILE]\n";
            return 2;
        }
    }
    CHECK(opt.ticks > opt.window + 2, "--ticks too small for --window");

    if (!opt.flightRecord.empty()) {
        obs::EventRecorder::instance().setCapacity(1U << 16U);
        obs::EventRecorder::instance().setEnabled(true);
    }
    const std::string ckpt_root =
        opt.checkpointDir.empty()
            ? (std::filesystem::temp_directory_path() /
               "sosim_serve_soak")
                  .string()
            : opt.checkpointDir;

    const auto feed = buildFeed(opt);

    // The matrix: unbroken and 3×kill/restore, each at 1 and 4 threads.
    // Every cell must land on the same digest.
    const Outcome u1 = runUnbroken(opt, feed, 1);
    const Outcome u4 = runUnbroken(opt, feed, 4);
    const Outcome k1 =
        runKillRestore(opt, feed, 1, ckpt_root + "/t1");
    const Outcome k4 =
        runKillRestore(opt, feed, 4, ckpt_root + "/t4");

    std::cout << "serve_soak: digest 0x" << std::hex << u1.digest
              << std::dec << ", accepted " << u1.accepted << " ("
              << u1.late << " late), sheds " << u1.sheds << ", epochs "
              << u1.committedEpoch << ", restores " << k1.restores
              << "\n";

    CHECK(u1.digest == u4.digest,
          "unbroken digest differs across thread counts");
    CHECK(u1.digest == k1.digest,
          "kill/restore digest (1 thread) diverged from unbroken run");
    CHECK(u1.digest == k4.digest,
          "kill/restore digest (4 threads) diverged from unbroken run");
    // Three deaths: the first one leaves checkpoints behind but starts
    // cold, the later two restore mid-run, and the final service
    // restores once more to finish the feed.
    CHECK(k1.restores == 3 && k4.restores == 3,
          "expected exactly 3 checkpoint restores");
    CHECK(u1.accepted >= 10000,
          "soak too small: fewer than 10k accepted samples");
    CHECK(u1.late > 0, "no late-accepted samples exercised");
    CHECK(u1.sheds > 0, "backpressure never shed an epoch");
    CHECK(u1.sheds == k1.sheds && u1.sheds == k4.sheds,
          "shed counts diverged across runs");
    CHECK(u1.committedEpoch > 0, "no epochs were ever processed");

    // Reject coverage is asserted on a fresh single-threaded run so the
    // ring is quiescent when the quarantine is inspected.
    {
        util::setThreadCount(1);
        power::PowerTree tree(power::TopologySpec{});
        std::vector<std::size_t> service_of(opt.instances);
        for (std::size_t i = 0; i < opt.instances; ++i)
            service_of[i] = i % 4;
        auto initial = baseline::obliviousPlacement(tree, service_of);
        serve::Service svc(tree, service_of, initial, 5,
                           serveConfig(opt, ""));
        drive(svc, feed, 0, opt.ticks - 1, opt);
        checkRejectCoverage(svc.ring());
        util::setThreadCount(0);
    }

    if (!opt.flightRecord.empty()) {
        std::ofstream out(opt.flightRecord);
        CHECK(out.good(), "cannot open --flight-record file");
        const auto events = obs::EventRecorder::instance().collect();
        obs::writeEventJournal(out, events, "serve-soak");
        std::cout << "serve_soak: wrote flight record ("
                  << events.size() << " events) to " << opt.flightRecord
                  << "\n";
    }

    std::cout << "serve_soak: all invariants held\n";
    return 0;
}

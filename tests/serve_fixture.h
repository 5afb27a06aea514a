#ifndef SOSIM_TESTS_SERVE_FIXTURE_H
#define SOSIM_TESTS_SERVE_FIXTURE_H

/**
 * @file
 * The serve-layer fixture shared by the serve tests and the checkpoint
 * loader fuzz test: a 4-rack tree, 16 instances in two services, the
 * deterministic feed that drives a serve::Service, and a field-by-field
 * view of the checkpoint payload.
 */

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "power/power_tree.h"
#include "serve/checkpoint.h"
#include "serve/service.h"

namespace sosim::serve_fixture {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** A fresh empty directory under the test temp root. */
inline std::string
freshDir(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "sosim_serve_" + name;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

/** The fixture tree: one suite, two SBs, four racks. */
inline power::TopologySpec
tinyTopology()
{
    power::TopologySpec spec;
    spec.suites = 1;
    spec.msbsPerSuite = 1;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 1;
    spec.racksPerRpp = 2;
    return spec;
}

constexpr std::size_t kInstances = 16;

inline std::vector<std::size_t>
tinyServices()
{
    std::vector<std::size_t> service_of(kInstances);
    for (std::size_t i = 0; i < kInstances; ++i)
        service_of[i] = i % 2;
    return service_of;
}

inline serve::ServeConfig
tinyConfig(const std::string &checkpoint_dir)
{
    serve::ServeConfig config;
    config.window = 12;
    config.epochTicks = 6;
    config.maxEpochQueue = 2;
    // Zero remap threshold: any non-degraded epoch with a baseline
    // recommends Remap, exercising the act-on-action path every run.
    config.monitor.remapThreshold = 0.0;
    config.monitor.replaceThreshold = 10.0;
    config.monitor.baselineWindowWeeks = 2;
    config.checkpointDir = checkpoint_dir;
    return config;
}

/** Deterministic per-(instance, tick) feed with a drifting diurnal
 *  shape, so successive epochs genuinely differ. */
inline double
feedWatts(std::size_t instance, std::uint64_t tick)
{
    const double phase =
        double(instance) * 0.7 + double(tick) * double(instance % 3) *
                                     0.01;
    return 1.0 + 0.5 * std::sin(double(tick) * 0.26 + phase);
}

/**
 * True when this instance's sensor is silent at this tick: one bounded
 * outage, so the epochs overlapping it take the degraded path while the
 * surrounding epochs stay clean and feed the baseline window.
 */
inline bool
sensorSilent(std::size_t instance, std::uint64_t tick)
{
    return instance == 2 && tick >= 30 && tick < 42;
}

/**
 * Drive a service from tick `from` to tick `to` inclusive with the
 * deterministic feed + garbage schedule, processing ready epochs every
 * third tick (so the bounded queue occasionally sheds).
 */
inline void
drive(serve::Service &svc, std::uint64_t from, std::uint64_t to)
{
    for (std::uint64_t t = from; t <= to; ++t) {
        svc.advanceTo(t);
        for (std::size_t i = 0; i < kInstances; ++i)
            if (!sensorSilent(i, t))
                svc.ingest({t, i, feedWatts(i, t)});
        // A little deterministic garbage every tick.
        svc.ingest({t, kInstances + 5, 1.0});
        svc.ingest({t, 0, kNaN});
        if (t % 7 == 0)
            svc.ingest({t + 3, 1, 1.0}); // future
        if (t % 3 == 0)
            svc.processReadyEpochs();
    }
}

/** A serve checkpoint payload, field by field, in the order
 *  Service::writeCheckpoint writes it. */
struct ServePayload {
    std::uint64_t frontier = 0, committed = 0, digest = 0, shed = 0;
    std::vector<double> slots;
    std::vector<std::uint64_t> fills, counters, assign;
    std::vector<double> baselineWindow;
    std::uint64_t weekCounter = 0;
    struct Snapshot {
        std::uint64_t epoch = 0, lastTick = 0;
        std::vector<double> flat;
    };
    std::vector<Snapshot> queue;
};

/** Read a payload into its fields; false on underrun or excess bytes. */
inline bool
parsePayload(const std::string &bytes, ServePayload &p)
{
    serve::PayloadReader r(bytes);
    std::uint64_t queued = 0;
    if (!r.u64(p.frontier) || !r.u64(p.committed) || !r.u64(p.digest) ||
        !r.u64(p.shed) || !r.f64Vector(p.slots) || !r.u64Vector(p.fills) ||
        !r.u64Vector(p.counters) || !r.u64Vector(p.assign) ||
        !r.f64Vector(p.baselineWindow) || !r.u64(p.weekCounter) ||
        !r.u64(queued))
        return false;
    p.queue.resize(queued);
    for (auto &snap : p.queue)
        if (!r.u64(snap.epoch) || !r.u64(snap.lastTick) ||
            !r.f64Vector(snap.flat))
            return false;
    return r.exhausted();
}

/** The exact inverse of parsePayload. */
inline std::string
writePayload(const ServePayload &p)
{
    serve::PayloadWriter w;
    w.u64(p.frontier);
    w.u64(p.committed);
    w.u64(p.digest);
    w.u64(p.shed);
    w.f64Vector(p.slots);
    w.u64Vector(p.fills);
    w.u64Vector(p.counters);
    w.u64Vector(p.assign);
    w.f64Vector(p.baselineWindow);
    w.u64(p.weekCounter);
    w.u64(p.queue.size());
    for (const auto &snap : p.queue) {
        w.u64(snap.epoch);
        w.u64(snap.lastTick);
        w.f64Vector(snap.flat);
    }
    return w.bytes();
}

} // namespace sosim::serve_fixture

#endif // SOSIM_TESTS_SERVE_FIXTURE_H

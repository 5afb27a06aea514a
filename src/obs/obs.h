#ifndef SOSIM_OBS_OBS_H
#define SOSIM_OBS_OBS_H

/**
 * @file
 * Instrumentation macros — the only way library code should emit
 * telemetry.
 *
 * Instrumentation is always compiled in.  Each macro caches a `static`
 * reference to its metric on first execution and thereafter costs one
 * relaxed atomic RMW (counters/histograms/gauges) or one clock read +
 * node push (spans).  Flight-recorder events cost one relaxed load and a
 * branch while the recorder is idle, and do not evaluate their payload.
 *
 * Naming convention: dot-separated lowercase paths,
 * "<subsystem>.<object>.<event>" — e.g. "trace.kernels.peak_of_sum",
 * "pool.chunks_run", "monitor.fragmentation_ratio".  Exporters derive
 * Prometheus names from these (dots become underscores).
 */

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/span.h"

#define SOSIM_OBS_CONCAT_IMPL(a, b) a##b
#define SOSIM_OBS_CONCAT(a, b) SOSIM_OBS_CONCAT_IMPL(a, b)

/** Open a RAII span for the rest of the enclosing scope. */
#define SOSIM_SPAN(name)                                                    \
    ::sosim::obs::ScopedSpan SOSIM_OBS_CONCAT(sosim_span_, __LINE__)(name)

/** Add `delta` to the counter `name` (name must be a constant). */
#define SOSIM_COUNT_ADD(name, delta)                                        \
    do {                                                                    \
        static ::sosim::obs::Counter &sosim_obs_c =                         \
            ::sosim::obs::registry().counter(name);                         \
        sosim_obs_c.add(static_cast<std::uint64_t>(delta));                 \
    } while (0)

/** Increment the counter `name` by one. */
#define SOSIM_COUNT(name) SOSIM_COUNT_ADD(name, 1)

/** Set the gauge `name` to `value`. */
#define SOSIM_GAUGE_SET(name, value)                                        \
    do {                                                                    \
        static ::sosim::obs::Gauge &sosim_obs_g =                           \
            ::sosim::obs::registry().gauge(name);                           \
        sosim_obs_g.set(static_cast<double>(value));                        \
    } while (0)

/** Record `value` into the histogram `name`. */
#define SOSIM_OBSERVE(name, value)                                          \
    do {                                                                    \
        static ::sosim::obs::Histogram &sosim_obs_h =                       \
            ::sosim::obs::registry().histogram(name);                       \
        sosim_obs_h.observe(static_cast<double>(value));                    \
    } while (0)

/**
 * Record one flight-recorder event.  Arguments are EventData designated
 * initializers: SOSIM_EVENT(.kind = EventKind::SwapAccept, .a = inst).
 * Costs one relaxed load and a branch while the recorder is idle.
 */
#define SOSIM_EVENT(...)                                                    \
    do {                                                                    \
        static ::sosim::obs::EventRecorder &sosim_obs_e =                   \
            ::sosim::obs::EventRecorder::instance();                        \
        if (sosim_obs_e.enabled())                                          \
            sosim_obs_e.record(::sosim::obs::EventData{__VA_ARGS__});       \
    } while (0)

/**
 * Open a RAII causal scope for the rest of the enclosing block: events
 * recorded inside (including on parallelFor workers the block submits)
 * carry this scope event's id as their parent.
 */
/* The ternary keeps the payload expressions unevaluated while the
 * recorder is idle — same laziness contract as SOSIM_EVENT. */
#define SOSIM_EVENT_SCOPE(...)                                              \
    ::sosim::obs::ScopedEventScope SOSIM_OBS_CONCAT(                        \
        sosim_event_scope_,                                                 \
        __LINE__)(::sosim::obs::EventRecorder::instance().enabled()        \
                      ? ::sosim::obs::EventData{__VA_ARGS__}               \
                      : ::sosim::obs::EventData{})

#endif // SOSIM_OBS_OBS_H

#ifndef SOSIM_OBS_EXPORT_H
#define SOSIM_OBS_EXPORT_H

/**
 * @file
 * Exporters for the metrics registry and the span tree:
 *
 *   - writeMetricsJson: one JSON document (a label, a UTC timestamp,
 *     then payload sections) with counters, gauges, histograms and the
 *     span tree.  Pass an explicit timestamp for reproducible output (golden
 *     tests pass a fixed string; callers pass utcTimestamp()).
 *
 *   - writeMetricsPrometheus: Prometheus text exposition format.
 *     Metric names are derived from registry names by prefixing
 *     "sosim_" and mapping every non-alphanumeric character to '_';
 *     counters gain the conventional "_total" suffix.  Span busy time
 *     and invocation counts are exported as two labelled counters,
 *     sosim_span_busy_seconds_total{span="a/b/c"} and
 *     sosim_span_invocations_total{span="a/b/c"}.
 *
 *   - printSpanTree: human-readable indented tree with per-node busy
 *     time, invocation counts, and share of the parent's busy time.
 */

#include <iosfwd>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"

namespace sosim::obs {

/**
 * "YYYY-MM-DDTHH:MM:SSZ" for the current wall-clock time — unless fake
 * time is active, in which case the pinned stamp is returned verbatim.
 *
 * Fake time exists so journal/metrics goldens can be byte-stable in
 * ctest: set the SOSIM_FAKE_TIME environment variable (read once, at
 * first use) or call setFakeTime().  While active, the flight recorder
 * (obs/events.h) also stamps events with synthetic, sequence-derived
 * steady times instead of the real clock.
 */
std::string utcTimestamp();

/** Pin utcTimestamp() to `stamp` (""/empty restores real time). */
void setFakeTime(const std::string &stamp);

/** True while a fake timestamp is pinned (one relaxed load). */
bool fakeTimeActive();

/**
 * JSON string escaping: quotes, backslashes and control characters (a
 * raw newline or tab in a name would break the emitted document).
 */
std::string jsonEscape(const std::string &s);

/**
 * `v` in printf's "%.12g" form: the one number format of the metrics
 * JSON, the Prometheus exposition and the flight journal.  Non-finite
 * values print as printf's nan/inf; the JSON writers emit null instead.
 */
std::string formatDouble(double v);

/** JSON dump of a snapshot plus a span tree. */
void writeMetricsJson(std::ostream &os, const MetricsSnapshot &snapshot,
                      const SpanNode &span_root, const std::string &label,
                      const std::string &timestamp);

/** Convenience overload scraping the global registry and tracer. */
void writeMetricsJson(std::ostream &os, const std::string &label);

/** Prometheus text exposition of a snapshot plus a span tree. */
void writeMetricsPrometheus(std::ostream &os,
                            const MetricsSnapshot &snapshot,
                            const SpanNode &span_root);

/** Convenience overload scraping the global registry and tracer. */
void writeMetricsPrometheus(std::ostream &os);

/** Indented per-stage wall-time tree of the global span tracer. */
void printSpanTree(std::ostream &os);

/** Indented per-stage wall-time tree of an explicit span root. */
void printSpanTree(std::ostream &os, const SpanNode &root);

} // namespace sosim::obs

#endif // SOSIM_OBS_EXPORT_H

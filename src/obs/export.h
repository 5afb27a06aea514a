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
#include <string_view>
#include <type_traits>
#include <vector>

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

/** Whitespace of one JSON container: before its first element, between
 *  elements, and before the closing bracket when non-empty.  The views
 *  must outlive the container. */
struct JsonLayout {
    std::string_view lead;
    std::string_view sep = ", ";
    std::string_view tail;
};

/**
 * The one JSON emitter behind the metrics JSON, the flight journal and
 * the Chrome trace.  It owns member separators, string escaping, printf
 * "%.12g" numbers with NaN/Inf written as null (JSON has no literal for
 * them), and the label / timestamp_utc header every document carries.
 *
 * Closing the outermost container ends the document's line.  Output
 * reaches the stream as containers close, except while an
 * optionalObject() is open: it stays buffered so that one can be taken
 * back if it ends up empty.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    /** Open '{' or '[' as the next element. */
    JsonWriter &open(char bracket, JsonLayout layout = {});

    /** Open object member `name` inside an object; close() erases it
     *  again, key and all, when nothing was written into it. */
    JsonWriter &optionalObject(std::string_view name);

    JsonWriter &close();

    /** `"name":` then `gap`; the next value or open() is its value. */
    JsonWriter &key(std::string_view name, std::string_view gap = " ");

    JsonWriter &value(std::string_view s);
    JsonWriter &value(double v);

    template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
    JsonWriter &value(T v)
    {
        return number(std::to_string(v));
    }

    /** A value already formatted as a JSON number. */
    JsonWriter &number(std::string_view text);

    template <typename T>
    JsonWriter &member(std::string_view name, const T &v)
    {
        return key(name).value(v);
    }

    JsonWriter &header(std::string_view label, std::string_view timestamp)
    {
        return member("label", label).member("timestamp_utc", timestamp);
    }

  private:
    struct Frame {
        char close;
        JsonLayout layout;
        bool empty = true;
        /** optionalObject(): where its key began, and whether the
         *  parent was empty before it. */
        std::size_t eraseFrom = std::string::npos;
        bool parentWasEmpty = false;
    };

    /** Write the separator that precedes the next key or value. */
    void element();

    std::ostream &os_;
    std::string out_;
    std::vector<Frame> frames_;
    bool afterKey_ = false;
    /** Open optionalObject()s; output is held back while non-zero. */
    int optionalOpen_ = 0;
};

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

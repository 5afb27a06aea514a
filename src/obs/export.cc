#include "export.h"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iomanip>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

namespace sosim::obs {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

namespace {

/** Prometheus label-value escaping per the text exposition format:
 *  backslash, double quote, and newline must be escaped inside the
 *  label="..." quotes (span paths are user-influenced strings). */
std::string
promLabelEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out.push_back(c);
        }
    }
    return out;
}

/** Finite doubles as-is; NaN/Inf as null (JSON has no literals for them). */
void
jsonNumber(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << v;
    else
        os << "null";
}

void
jsonSpanNode(std::ostream &os, const SpanNode &node, int indent)
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    os << pad << "{\"name\": \"" << jsonEscape(node.name) << "\", "
       << "\"invocations\": "
       << node.invocations.load(std::memory_order_relaxed) << ", "
       << "\"total_ns\": "
       << node.totalNanos.load(std::memory_order_relaxed);
    if (node.children.empty()) {
        os << "}";
        return;
    }
    os << ", \"children\": [\n";
    std::size_t i = 0;
    for (const auto &[name, child] : node.children) {
        jsonSpanNode(os, *child, indent + 2);
        os << (++i < node.children.size() ? ",\n" : "\n");
    }
    os << pad << "]}";
}

/** "sosim_" + name with every non-alphanumeric mapped to '_'. */
std::string
promName(const std::string &name)
{
    std::string out = "sosim_";
    out.reserve(out.size() + name.size());
    for (const char c : name)
        out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c
                                                                  : '_');
    return out;
}

/** Flatten the span tree into (path, node) rows, depth-first in order. */
void
collectSpans(const SpanNode &node, const std::string &path,
             std::vector<std::pair<std::string, const SpanNode *>> &out)
{
    for (const auto &[name, child] : node.children) {
        const std::string child_path =
            path.empty() ? name : path + "/" + name;
        out.emplace_back(child_path, child.get());
        collectSpans(*child, child_path, out);
    }
}

void
treeNode(std::ostream &os, const SpanNode &node, int depth,
         std::uint64_t parent_nanos)
{
    const std::uint64_t nanos =
        node.totalNanos.load(std::memory_order_relaxed);
    const std::uint64_t calls =
        node.invocations.load(std::memory_order_relaxed);
    std::ostringstream label;
    label << std::string(static_cast<std::size_t>(depth) * 2, ' ')
          << node.name;
    os << std::left << std::setw(44) << label.str() << std::right
       << std::setw(8) << calls << "x" << std::setw(12) << std::fixed
       << std::setprecision(2) << static_cast<double>(nanos) / 1e6
       << " ms";
    if (parent_nanos > 0)
        os << std::setw(7) << std::setprecision(1)
           << 100.0 * static_cast<double>(nanos) /
                  static_cast<double>(parent_nanos)
           << "%";
    os << "\n";
    for (const auto &[name, child] : node.children)
        treeNode(os, *child, depth + 1, nanos);
}

} // namespace

namespace {

/** Fake-time state: the flag is the hot-path gate (fakeTimeActive()
 *  runs once per recorded event); the string sits behind a mutex. */
std::atomic<bool> g_fakeActive{false};
std::mutex g_fakeMutex;
std::string g_fakeStamp;

/** Adopt SOSIM_FAKE_TIME from the environment, once. */
void
initFakeTimeFromEnv()
{
    static const bool once = [] {
        if (const char *env = std::getenv("SOSIM_FAKE_TIME"))
            if (env[0] != '\0')
                setFakeTime(env);
        return true;
    }();
    (void)once;
}

} // namespace

void
setFakeTime(const std::string &stamp)
{
    std::lock_guard<std::mutex> lock(g_fakeMutex);
    g_fakeStamp = stamp;
    g_fakeActive.store(!stamp.empty(), std::memory_order_relaxed);
}

bool
fakeTimeActive()
{
    initFakeTimeFromEnv();
    return g_fakeActive.load(std::memory_order_relaxed);
}

std::string
utcTimestamp()
{
    if (fakeTimeActive()) {
        std::lock_guard<std::mutex> lock(g_fakeMutex);
        return g_fakeStamp;
    }
    const std::time_t now = std::time(nullptr);
    char stamp[32] = "unknown";
    if (const std::tm *tm = std::gmtime(&now))
        std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", tm);
    return stamp;
}

void
writeMetricsJson(std::ostream &os, const MetricsSnapshot &snapshot,
                 const SpanNode &span_root, const std::string &label,
                 const std::string &timestamp)
{
    os << "{\n";
    os << "  \"label\": \"" << jsonEscape(label) << "\",\n";
    os << "  \"timestamp_utc\": \"" << jsonEscape(timestamp) << "\",\n";

    os << "  \"counters\": {";
    std::size_t i = 0;
    for (const auto &c : snapshot.counters) {
        os << (i++ ? ",\n    " : "\n    ");
        os << "\"" << jsonEscape(c.name) << "\": " << c.value;
    }
    os << (i ? "\n  },\n" : "},\n");

    os << "  \"gauges\": {";
    i = 0;
    for (const auto &g : snapshot.gauges) {
        os << (i++ ? ",\n    " : "\n    ");
        os << "\"" << jsonEscape(g.name) << "\": ";
        jsonNumber(os, g.value);
    }
    os << (i ? "\n  },\n" : "},\n");

    os << "  \"histograms\": {";
    i = 0;
    const auto &bounds = histogramBounds();
    for (const auto &h : snapshot.histograms) {
        os << (i++ ? ",\n    " : "\n    ");
        os << "\"" << jsonEscape(h.name) << "\": {\"count\": "
           << h.data.count << ", \"sum\": ";
        jsonNumber(os, h.data.sum);
        os << ", \"buckets\": [";
        std::size_t emitted = 0;
        for (std::size_t b = 0; b < bounds.size(); ++b) {
            if (h.data.bucketCounts[b] == 0)
                continue;
            os << (emitted++ ? ", " : "") << "{\"le\": " << bounds[b]
               << ", \"count\": " << h.data.bucketCounts[b] << "}";
        }
        os << "], \"overflow\": " << h.data.bucketCounts[bounds.size()]
           << "}";
    }
    os << (i ? "\n  },\n" : "},\n");

    os << "  \"spans\":\n";
    jsonSpanNode(os, span_root, 4);
    os << "\n}\n";
}

void
writeMetricsJson(std::ostream &os, const std::string &label)
{
    writeMetricsJson(os, registry().snapshot(),
                     SpanTracer::instance().root(), label, utcTimestamp());
}

void
writeMetricsPrometheus(std::ostream &os, const MetricsSnapshot &snapshot,
                       const SpanNode &span_root)
{
    for (const auto &c : snapshot.counters) {
        const std::string name = promName(c.name) + "_total";
        os << "# TYPE " << name << " counter\n";
        os << name << " " << c.value << "\n";
    }
    for (const auto &g : snapshot.gauges) {
        const std::string name = promName(g.name);
        os << "# TYPE " << name << " gauge\n";
        os << name << " " << g.value << "\n";
    }
    const auto &bounds = histogramBounds();
    for (const auto &h : snapshot.histograms) {
        const std::string name = promName(h.name);
        os << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < bounds.size(); ++b) {
            if (h.data.bucketCounts[b] == 0)
                continue;
            cumulative += h.data.bucketCounts[b];
            os << name << "_bucket{le=\"" << bounds[b] << "\"} "
               << cumulative << "\n";
        }
        os << name << "_bucket{le=\"+Inf\"} " << h.data.count << "\n";
        os << name << "_sum " << h.data.sum << "\n";
        os << name << "_count " << h.data.count << "\n";
    }
    if (!span_root.children.empty()) {
        std::vector<std::pair<std::string, const SpanNode *>> spans;
        collectSpans(span_root, "", spans);
        os << "# TYPE sosim_span_invocations_total counter\n";
        for (const auto &[path, node] : spans)
            os << "sosim_span_invocations_total{span=\""
               << promLabelEscape(path) << "\"} "
               << node->invocations.load(std::memory_order_relaxed)
               << "\n";
        os << "# TYPE sosim_span_busy_seconds_total counter\n";
        for (const auto &[path, node] : spans)
            os << "sosim_span_busy_seconds_total{span=\""
               << promLabelEscape(path) << "\"} "
               << static_cast<double>(
                      node->totalNanos.load(std::memory_order_relaxed)) /
                      1e9
               << "\n";
    }
}

void
writeMetricsPrometheus(std::ostream &os)
{
    writeMetricsPrometheus(os, registry().snapshot(),
                           SpanTracer::instance().root());
}

void
printSpanTree(std::ostream &os, const SpanNode &root)
{
    const std::ios::fmtflags flags(os.flags());
    const std::streamsize precision = os.precision();
    os << "span tree (busy time; sums across pool workers; % of parent)\n";
    if (root.children.empty()) {
        os << "  (no spans recorded"
#if defined(SOSIM_OBS_DISABLED)
              " — built with SOSIM_OBS=OFF"
#endif
              ")\n";
        return;
    }
    for (const auto &[name, child] : root.children)
        treeNode(os, *child, 1, 0);
    os.flags(flags);
    os.precision(precision);
}

void
printSpanTree(std::ostream &os)
{
    printSpanTree(os, SpanTracer::instance().root());
}

} // namespace sosim::obs

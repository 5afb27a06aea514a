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

namespace {

/** printf's "%.12g": the one number format of every exporter. */
std::string
formatDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

} // namespace

void
JsonWriter::element()
{
    if (std::exchange(afterKey_, false) || frames_.empty())
        return;
    Frame &f = frames_.back();
    out_ += f.empty ? f.layout.lead : f.layout.sep;
    f.empty = false;
}

JsonWriter &
JsonWriter::open(char bracket, JsonLayout layout)
{
    element();
    frames_.push_back({bracket == '{' ? '}' : ']', layout});
    out_ += bracket;
    return *this;
}

JsonWriter &
JsonWriter::optionalObject(std::string_view name)
{
    const std::size_t mark = out_.size();
    const bool parent_empty = frames_.back().empty;
    key(name).open('{');
    frames_.back().eraseFrom = mark;
    frames_.back().parentWasEmpty = parent_empty;
    ++optionalOpen_;
    return *this;
}

JsonWriter &
JsonWriter::close()
{
    const Frame f = frames_.back();
    frames_.pop_back();
    if (f.eraseFrom != std::string::npos) {
        --optionalOpen_;
        if (f.empty) {
            out_.resize(f.eraseFrom);
            frames_.back().empty = f.parentWasEmpty;
            return *this;
        }
    }
    if (!f.empty)
        out_ += f.layout.tail;
    out_ += f.close;
    if (frames_.empty())
        out_ += '\n';
    if (optionalOpen_ == 0) {
        os_ << out_;
        out_.clear();
    }
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name, std::string_view gap)
{
    value(name);
    out_ += ':';
    out_ += gap;
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    // Each character of kSpecial is written as a backslash and its
    // counterpart in kCode; other control characters as \u00XX.
    constexpr std::string_view kSpecial = "\"\\\n\r\t";
    constexpr std::string_view kCode = "\"\\nrt";
    element();
    out_ += '"';
    for (const char c : s) {
        const std::size_t k = kSpecial.find(c);
        if (k != std::string_view::npos) {
            out_ += '\\';
            out_ += kCode[k];
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            out_ += buf;
        } else {
            out_ += c;
        }
    }
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    return number(std::isfinite(v) ? formatDouble(v) : "null");
}

JsonWriter &
JsonWriter::number(std::string_view text)
{
    element();
    out_ += text;
    return *this;
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

void
jsonSpanNode(JsonWriter &json, const SpanNode &node, std::size_t indent)
{
    constexpr auto kRelaxed = std::memory_order_relaxed;
    json.open('{').member("name", node.name);
    json.member("invocations", node.invocations.load(kRelaxed));
    json.member("total_ns", node.totalNanos.load(kRelaxed));
    if (!node.children.empty()) {
        const std::string pad = "\n" + std::string(indent, ' ');
        const std::string lead = pad + "  ";
        const std::string sep = "," + lead;
        json.key("children").open('[', {lead, sep, pad});
        for (const auto &[name, child] : node.children)
            jsonSpanNode(json, *child, indent + 2);
        json.close();
    }
    json.close();
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

/** Flatten the span tree into rows, depth-first in order. */
void
collectSpans(const SpanNode &node, std::vector<const SpanNode *> &out)
{
    for (const auto &[name, child] : node.children) {
        out.push_back(child.get());
        collectSpans(*child, out);
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
    constexpr JsonLayout kSection{"\n    ", ",\n    ", "\n  "};
    JsonWriter json(os);
    json.open('{', {"\n  ", ",\n  ", "\n"}).header(label, timestamp);

    json.key("counters").open('{', kSection);
    for (const auto &c : snapshot.counters)
        json.member(c.name, c.value);
    json.close();

    json.key("gauges").open('{', kSection);
    for (const auto &g : snapshot.gauges)
        json.member(g.name, g.value);
    json.close();

    json.key("histograms").open('{', kSection);
    const auto &bounds = histogramBounds();
    for (const auto &h : snapshot.histograms) {
        json.key(h.name).open('{').member("count", h.data.count);
        json.member("sum", h.data.sum).key("buckets").open('[');
        for (std::size_t b = 0; b < bounds.size(); ++b) {
            if (h.data.bucketCounts[b] == 0)
                continue;
            json.open('{').member("le", bounds[b]);
            json.member("count", h.data.bucketCounts[b]).close();
        }
        json.close().member("overflow", h.data.bucketCounts[bounds.size()]);
        json.close();
    }
    json.close();

    json.key("spans", "\n    ");
    jsonSpanNode(json, span_root, 4);
    json.close();
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
        os << name << " " << formatDouble(g.value) << "\n";
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
            os << name << "_bucket{le=\"" << formatDouble(bounds[b])
               << "\"} " << cumulative << "\n";
        }
        os << name << "_bucket{le=\"+Inf\"} " << h.data.count << "\n";
        os << name << "_sum " << formatDouble(h.data.sum) << "\n";
        os << name << "_count " << h.data.count << "\n";
    }
    if (!span_root.children.empty()) {
        std::vector<const SpanNode *> spans;
        collectSpans(span_root, spans);
        os << "# TYPE sosim_span_invocations_total counter\n";
        for (const SpanNode *node : spans)
            os << "sosim_span_invocations_total{span=\""
               << promLabelEscape(node->path) << "\"} "
               << node->invocations.load(std::memory_order_relaxed)
               << "\n";
        os << "# TYPE sosim_span_busy_seconds_total counter\n";
        for (const SpanNode *node : spans)
            os << "sosim_span_busy_seconds_total{span=\""
               << promLabelEscape(node->path) << "\"} "
               << formatDouble(static_cast<double>(node->totalNanos.load(
                                   std::memory_order_relaxed)) /
                               1e9)
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
        os << "  (no spans recorded)\n";
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

#include "trace_export.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>
#include <type_traits>

#include "obs/export.h"
#include "util/parse.h"

namespace sosim::obs {

namespace {

/** Nanoseconds as microseconds with exactly three decimals (exact —
 *  Chrome trace "ts"/"dur" are microseconds, and integer-splitting
 *  avoids floating-point rounding in the export). */
void
writeMicros(std::ostream &os, std::uint64_t ns)
{
    char buf[8];
    std::snprintf(buf, sizeof buf, "%03u",
                  static_cast<unsigned>(ns % 1000));
    os << ns / 1000 << '.' << buf;
}

const char *
rejectReasonName(std::uint32_t code)
{
    switch (static_cast<RejectReason>(code)) {
      case RejectReason::EarlyReject:
        return "early_reject";
      case RejectReason::ValidityGate:
        return "validity_gate";
      case RejectReason::NoImprovement:
        return "no_improvement";
      case RejectReason::Pruned:
        return "pruned";
    }
    return "unknown";
}

const char *
faultCodeName(std::uint32_t code)
{
    switch (static_cast<FaultEventCode>(code)) {
      case FaultEventCode::ClockSkew:
        return "clock_skew";
      case FaultEventCode::StuckSensor:
        return "stuck_sensor";
      case FaultEventCode::Gap:
        return "gap";
      case FaultEventCode::TraceLoss:
        return "trace_loss";
      case FaultEventCode::BreakerTrip:
        return "breaker_trip";
      case FaultEventCode::Derate:
        return "derate";
    }
    return "unknown";
}

/**
 * The kind-specific payload of one event as `"key": value` JSON object
 * members (no surrounding braces) — shared by the journal writer and
 * the Chrome-trace writer.  This is the journal's args schema.
 */
std::string
argsInner(const Event &e)
{
    std::ostringstream os;
    bool first = true;
    auto key = [&](const char *k) {
        if (!first)
            os << ", ";
        first = false;
        os << '"' << k << "\": ";
    };
    auto u64 = [&](const char *k, std::uint64_t v) {
        key(k);
        os << v;
    };
    auto i64 = [&](const char *k, std::int64_t v) {
        key(k);
        os << v;
    };
    auto dbl = [&](const char *k, double v) {
        key(k);
        // JSON has no literals for NaN/Inf.
        os << (std::isfinite(v) ? formatDouble(v) : "null");
    };
    auto str = [&](const char *k, const std::string &v) {
        key(k);
        os << '"' << jsonEscape(v) << '"';
    };
    const EventRecorder &rec = EventRecorder::instance();
    switch (e.kind) {
      case EventKind::None:
        break;
      case EventKind::Span:
        str("span", rec.labelOf(e.name));
        u64("dur_ns", e.b);
        break;
      case EventKind::Scope:
        str("label", rec.labelOf(e.name));
        if (e.a != 0)
            u64("a", e.a);
        if (e.b != 0)
            u64("b", e.b);
        if (e.c != 0)
            u64("c", e.c);
        if (e.d != 0)
            u64("d", e.d);
        break;
      case EventKind::SwapAccept:
        u64("inst_a", e.a);
        u64("inst_b", e.b);
        u64("rack_a", e.c);
        u64("rack_b", e.d);
        dbl("gain", e.x);
        dbl("delta_a", e.y);
        dbl("delta_b", e.z);
        break;
      case EventKind::SwapReject:
        // Coalesced: one event per candidate per reason per remap
        // round — `partners` rejected pairings, `nearest` the partner
        // with the smallest score deficit (see core/remap.cc).
        str("reason", rejectReasonName(e.code));
        u64("inst_a", e.a);
        u64("partners", e.b);
        u64("rack_a", e.c);
        u64("nearest", e.d);
        dbl("score_before", e.x);
        dbl("score_after", e.y);
        break;
      case EventKind::MonitorWeek:
        u64("week", e.a);
        u64("action", e.b);
        if (e.name != 0)
            str("action_name", rec.labelOf(e.name));
        u64("degraded", e.code);
        u64("excluded", e.c);
        u64("repaired_samples", e.d);
        dbl("fragmentation_ratio", e.x);
        dbl("valid_fraction", e.y);
        dbl("widen", e.z);
        break;
      case EventKind::MonitorExclude:
        u64("instance", e.a);
        dbl("validity", e.x);
        break;
      case EventKind::FaultInject:
        str("fault", faultCodeName(e.code));
        switch (static_cast<FaultEventCode>(e.code)) {
          case FaultEventCode::ClockSkew:
            u64("instance", e.a);
            i64("offset", static_cast<std::int64_t>(e.b));
            break;
          case FaultEventCode::StuckSensor:
            u64("instance", e.a);
            u64("windows", e.b);
            u64("samples", e.c);
            break;
          case FaultEventCode::Gap:
            u64("instance", e.a);
            u64("gaps", e.b);
            u64("samples", e.c);
            break;
          case FaultEventCode::TraceLoss:
            u64("instance", e.a);
            break;
          case FaultEventCode::BreakerTrip:
            u64("rack", e.a);
            u64("at_sample", e.b);
            u64("duration", e.c);
            break;
          case FaultEventCode::Derate:
            u64("node", e.a);
            dbl("factor", e.x);
            break;
        }
        if (e.d != 0)
            u64("plan", e.d);
        break;
      case EventKind::FaultRepair:
        u64("instance", e.a);
        u64("samples", e.b);
        break;
      case EventKind::GraphEval:
        str("op", rec.labelOf(e.name));
        u64("sig", e.a);
        if (e.b != 0)
            u64("input_fp0", e.b);
        if (e.c != 0)
            u64("input_fp1", e.c);
        if (e.d != 0)
            u64("input_fp2", e.d);
        break;
      case EventKind::GraphCacheHit:
        str("op", rec.labelOf(e.name));
        u64("sig", e.a);
        break;
      case EventKind::IngestReject:
        str("reason", rec.labelOf(e.name));
        u64("instance", e.a);
        u64("tick", e.b);
        dbl("watts", e.x);
        break;
      case EventKind::EpochCommit:
        u64("epoch", e.a);
        u64("frontier", e.b);
        u64("action", e.c);
        u64("swaps", e.d);
        dbl("fragmentation_ratio", e.x);
        u64("degraded", e.code);
        break;
      case EventKind::EpochShed:
        u64("epoch", e.a);
        u64("queue_depth", e.b);
        break;
      case EventKind::CheckpointWrite:
        u64("epoch", e.a);
        u64("bytes", e.b);
        u64("slot", e.c);
        break;
      case EventKind::CheckpointRestore:
        u64("epoch", e.a);
        u64("frontier", e.b);
        break;
    }
    return os.str();
}

} // namespace

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::None:
        return "none";
      case EventKind::Span:
        return "span";
      case EventKind::Scope:
        return "scope";
      case EventKind::SwapAccept:
        return "swap_accept";
      case EventKind::SwapReject:
        return "swap_reject";
      case EventKind::MonitorWeek:
        return "monitor_week";
      case EventKind::MonitorExclude:
        return "monitor_exclude";
      case EventKind::FaultInject:
        return "fault_inject";
      case EventKind::FaultRepair:
        return "fault_repair";
      case EventKind::GraphEval:
        return "graph_eval";
      case EventKind::GraphCacheHit:
        return "graph_cache_hit";
      case EventKind::IngestReject:
        return "ingest_reject";
      case EventKind::EpochCommit:
        return "epoch_commit";
      case EventKind::EpochShed:
        return "epoch_shed";
      case EventKind::CheckpointWrite:
        return "checkpoint_write";
      case EventKind::CheckpointRestore:
        return "checkpoint_restore";
    }
    return "unknown";
}

void
writeEventJournal(std::ostream &os, const std::vector<Event> &events,
                  const std::string &label)
{
    EventRecorder &rec = EventRecorder::instance();
    const std::string stamp =
        rec.wallEpoch().empty() ? utcTimestamp() : rec.wallEpoch();
    os << "{\"label\": \"" << jsonEscape(label)
       << "\", \"timestamp_utc\": \"" << jsonEscape(stamp)
       << "\", \"dropped\": " << rec.dropped()
       << ", \"recorded\": " << rec.recorded()
       << ", \"events\": " << events.size() << "}\n";
    for (const Event &e : events) {
        os << "{\"seq\": " << e.seq << ", \"parent\": " << e.parent
           << ", \"thread\": " << e.thread
           << ", \"t_ns\": " << e.steadyNanos << ", \"kind\": \""
           << eventKindName(e.kind) << "\"";
        const std::string inner = argsInner(e);
        if (!inner.empty())
            os << ", \"args\": {" << inner << "}";
        os << "}\n";
    }
}

void
writeChromeTrace(std::ostream &os, const std::vector<Event> &events,
                 const std::string &label)
{
    EventRecorder &rec = EventRecorder::instance();
    const std::string stamp =
        rec.wallEpoch().empty() ? utcTimestamp() : rec.wallEpoch();
    os << "{\n\"traceEvents\": [\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    sep();
    os << "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
          "\"name\": \"process_name\", \"args\": {\"name\": \"sosim\"}}";
    std::set<unsigned> threads;
    for (const Event &e : events)
        threads.insert(e.thread);
    for (const unsigned t : threads) {
        sep();
        os << "{\"ph\": \"M\", \"pid\": 0, \"tid\": " << t
           << ", \"name\": \"thread_name\", \"args\": {\"name\": "
              "\"worker "
           << t << "\"}}";
    }
    for (const Event &e : events) {
        sep();
        const std::string inner = argsInner(e);
        if (e.kind == EventKind::Span) {
            // The slice is named by the span's last path component (span
            // names never contain '/').
            const std::string path = rec.labelOf(e.name);
            os << "{\"ph\": \"X\", \"pid\": 0, \"tid\": " << e.thread
               << ", \"ts\": ";
            writeMicros(os, e.steadyNanos);
            os << ", \"dur\": ";
            writeMicros(os, e.b);
            os << ", \"name\": \""
               << jsonEscape(path.substr(path.rfind('/') + 1))
               << "\", \"cat\": \"span\"";
        } else {
            os << "{\"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": "
               << e.thread << ", \"ts\": ";
            writeMicros(os, e.steadyNanos);
            os << ", \"name\": \"" << eventKindName(e.kind)
               << "\", \"cat\": \"decision\"";
        }
        os << ", \"args\": {\"seq\": " << e.seq
           << ", \"parent\": " << e.parent;
        if (!inner.empty())
            os << ", " << inner;
        os << "}}";
    }
    os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
          "{\"label\": \""
       << jsonEscape(label) << "\", \"timestamp_utc\": \""
       << jsonEscape(stamp) << "\"}\n}\n";
}

namespace {

/**
 * Recursive-descent JSON parser: the syntax check behind validateJson
 * and the journal reader.  Given a member map it also requires the
 * document to be an object and collects its top-level members: key ->
 * the value unescaped when it is a string, its JSON text otherwise.
 */
class JsonChecker
{
  public:
    using Members = std::map<std::string, std::string>;

    explicit JsonChecker(std::string_view text, Members *members = nullptr)
        : s_(text), members_(members)
    {}

    bool
    run(std::string *error)
    {
        ws();
        if (members_ != nullptr && !(i_ < s_.size() && s_[i_] == '{')) {
            fail("expected object");
            return report(error);
        }
        if (!value(0))
            return report(error);
        ws();
        if (i_ != s_.size()) {
            fail("trailing data after document");
            return report(error);
        }
        return true;
    }

  private:
    static constexpr int kMaxDepth = 128;

    bool
    report(std::string *error) const
    {
        if (error != nullptr) {
            std::ostringstream os;
            os << "at byte " << i_ << ": " << message_;
            *error = os.str();
        }
        return false;
    }

    void
    fail(const char *msg)
    {
        if (message_ == nullptr)
            message_ = msg;
    }

    void
    ws()
    {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
                s_[i_] == '\r'))
            ++i_;
    }

    bool
    eat(char c)
    {
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view lit)
    {
        if (s_.substr(i_, lit.size()) != lit) {
            fail("bad literal");
            return false;
        }
        i_ += lit.size();
        return true;
    }

    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0U | (cp >> 6U)));
            out.push_back(static_cast<char>(0x80U | (cp & 0x3FU)));
        } else {
            out.push_back(static_cast<char>(0xE0U | (cp >> 12U)));
            out.push_back(static_cast<char>(0x80U | ((cp >> 6U) & 0x3FU)));
            out.push_back(static_cast<char>(0x80U | (cp & 0x3FU)));
        }
    }

    /** A string token, unescaped into `out` when it is non-null. */
    bool
    string(std::string *out = nullptr)
    {
        constexpr std::string_view kEscapes = "\"\\/bfnrt";
        constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        if (!eat('"')) {
            fail("expected string");
            return false;
        }
        if (out != nullptr)
            out->clear();
        while (i_ < s_.size()) {
            const char c = s_[i_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
                return false;
            }
            if (c != '\\') {
                if (out != nullptr)
                    out->push_back(c);
                continue;
            }
            if (i_ >= s_.size()) {
                fail("truncated escape");
                return false;
            }
            const char esc = s_[i_++];
            if (esc == 'u') {
                const char *hex = s_.data() + i_;
                const char *last = s_.data() + std::min(i_ + 4, s_.size());
                unsigned cp = 0;
                const auto [end, ec] = std::from_chars(hex, last, cp, 16);
                if (ec != std::errc() || end != hex + 4) {
                    fail("bad \\u escape");
                    return false;
                }
                i_ += 4;
                if (out != nullptr)
                    appendUtf8(*out, cp);
                continue;
            }
            const std::size_t k = kEscapes.find(esc);
            if (k == std::string_view::npos) {
                fail("bad escape character");
                return false;
            }
            if (out != nullptr)
                out->push_back(kDecoded[k]);
        }
        fail("unterminated string");
        return false;
    }

    bool
    number()
    {
        const std::size_t begin = i_;
        eat('-');
        if (eat('0')) {
            // No leading zeros.
        } else {
            if (!digits()) {
                fail("expected number");
                return false;
            }
        }
        if (eat('.')) {
            if (!digits()) {
                fail("digits required after decimal point");
                return false;
            }
        }
        if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
            ++i_;
            if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-'))
                ++i_;
            if (!digits()) {
                fail("digits required in exponent");
                return false;
            }
        }
        return i_ > begin;
    }

    bool
    digits()
    {
        const std::size_t begin = i_;
        while (i_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[i_])) != 0)
            ++i_;
        return i_ > begin;
    }

    bool
    value(int depth)
    {
        if (depth > kMaxDepth) {
            fail("nesting too deep");
            return false;
        }
        if (i_ >= s_.size()) {
            fail("unexpected end of input");
            return false;
        }
        switch (s_[i_]) {
          case '{':
            return object(depth);
          case '[':
            return array(depth);
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object(int depth)
    {
        Members *const members = depth == 0 ? members_ : nullptr;
        std::string key;
        std::string text;
        eat('{');
        ws();
        if (eat('}'))
            return true;
        while (true) {
            ws();
            if (!string(members != nullptr ? &key : nullptr))
                return false;
            ws();
            if (!eat(':')) {
                fail("expected ':' in object");
                return false;
            }
            ws();
            const std::size_t begin = i_;
            if (members != nullptr && i_ < s_.size() && s_[i_] == '"') {
                if (!string(&text))
                    return false;
            } else if (!value(depth + 1)) {
                return false;
            } else if (members != nullptr) {
                text.assign(s_.substr(begin, i_ - begin));
            }
            if (members != nullptr)
                (*members)[key] = text;
            ws();
            if (eat(','))
                continue;
            if (eat('}'))
                return true;
            fail("expected ',' or '}' in object");
            return false;
        }
    }

    bool
    array(int depth)
    {
        eat('[');
        ws();
        if (eat(']'))
            return true;
        while (true) {
            ws();
            if (!value(depth + 1))
                return false;
            ws();
            if (eat(','))
                continue;
            if (eat(']'))
                return true;
            fail("expected ',' or ']' in array");
            return false;
        }
    }

    std::string_view s_;
    Members *members_ = nullptr;
    std::size_t i_ = 0;
    const char *message_ = nullptr;
};

/**
 * One journal line (`has_kind` is false for the header object).  Throws
 * util::FatalError when a u64 field is not a whole unsigned number.
 */
bool
parseJournalLine(std::string_view line, JournalEvent &ev, bool &has_kind)
{
    JsonChecker::Members members;
    if (!JsonChecker(line, &members).run(nullptr))
        return false;
    const auto args = members.find("args");
    if (args != members.end() &&
        !JsonChecker(args->second, &ev.args).run(nullptr))
        return false;
    const auto field = [&members](const char *key, auto &out) {
        const auto it = members.find(key);
        if (it != members.end())
            out = util::parseNumber<std::remove_reference_t<decltype(out)>>(
                it->second, key);
    };
    field("seq", ev.seq);
    field("parent", ev.parent);
    field("thread", ev.thread);
    field("t_ns", ev.tNanos);
    const auto kind = members.find("kind");
    has_kind = kind != members.end();
    if (has_kind)
        ev.kind = kind->second;
    return true;
}

} // namespace

bool
validateJson(std::string_view text, std::string *error)
{
    return JsonChecker(text).run(error);
}

bool
readEventJournal(std::istream &is, std::vector<JournalEvent> &out,
                 std::string *error)
{
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        JournalEvent ev;
        bool has_kind = false;
        bool ok = false;
        try {
            ok = parseJournalLine(line, ev, has_kind);
        } catch (const util::FatalError &) {
            // A u64 field that is not a whole unsigned number.
        }
        if (!ok) {
            if (error != nullptr) {
                std::ostringstream os;
                os << "malformed journal line " << lineno;
                *error = os.str();
            }
            return false;
        }
        if (has_kind)
            out.push_back(std::move(ev));
    }
    return true;
}

namespace {

std::string
arg(const JournalEvent &e, const char *k)
{
    const auto it = e.args.find(k);
    return it == e.args.end() ? std::string() : it->second;
}

bool
argEquals(const JournalEvent &e, const char *k, std::uint64_t v)
{
    const auto it = e.args.find(k);
    return it != e.args.end() && it->second == std::to_string(v);
}

bool
matchesInstance(const JournalEvent &e, std::uint64_t id)
{
    if (e.kind == "swap_accept")
        return argEquals(e, "inst_a", id) || argEquals(e, "inst_b", id);
    if (e.kind == "swap_reject")
        return argEquals(e, "inst_a", id) ||
               argEquals(e, "nearest", id);
    if (e.kind == "monitor_exclude" || e.kind == "fault_inject" ||
        e.kind == "fault_repair")
        return argEquals(e, "instance", id);
    return false;
}

bool
matchesNode(const JournalEvent &e, std::uint64_t sig)
{
    return (e.kind == "graph_eval" || e.kind == "graph_cache_hit") &&
           argEquals(e, "sig", sig);
}

/** One human-readable sentence for an event (k=v fallback). */
std::string
describe(const JournalEvent &e)
{
    std::ostringstream os;
    if (e.kind == "swap_accept") {
        os << "accepted swap: instance " << arg(e, "inst_a")
           << " <-> instance " << arg(e, "inst_b") << " (rack "
           << arg(e, "rack_a") << " <-> rack " << arg(e, "rack_b")
           << "), gain " << arg(e, "gain") << " (delta A "
           << arg(e, "delta_a") << ", delta B " << arg(e, "delta_b")
           << ")";
    } else if (e.kind == "swap_reject") {
        const std::string reason = arg(e, "reason");
        os << "rejected pairings: instance " << arg(e, "inst_a")
           << " at rack " << arg(e, "rack_a") << " — "
           << arg(e, "partners") << " partner(s) ";
        if (reason == "early_reject")
            os << "showed no improvement at the donor rack "
                  "(early-reject kernel gate)";
        else if (reason == "validity_gate")
            os << "excluded by the validity gate";
        else if (reason == "no_improvement")
            os << "showed no net improvement after the full swap";
        else if (reason == "pruned")
            os << "pruned by the cluster candidate index before "
                  "evaluation";
        else
            os << "rejected: " << reason;
        if (reason != "validity_gate" && reason != "pruned" &&
            !arg(e, "nearest").empty())
            os << "; nearest miss: instance " << arg(e, "nearest")
               << ", score " << arg(e, "score_before") << " -> "
               << arg(e, "score_after");
    } else if (e.kind == "monitor_week") {
        os << "monitor week " << arg(e, "week") << ": "
           << (arg(e, "degraded") == "1" ? "DEGRADED" : "normal")
           << ", fragmentation_ratio "
           << arg(e, "fragmentation_ratio") << ", valid_fraction "
           << arg(e, "valid_fraction");
        if (!arg(e, "action_name").empty())
            os << ", action " << arg(e, "action_name");
        if (arg(e, "degraded") == "1")
            os << ", thresholds widened x" << arg(e, "widen");
        if (arg(e, "excluded") != "0" && !arg(e, "excluded").empty())
            os << ", " << arg(e, "excluded") << " instance(s) excluded";
    } else if (e.kind == "monitor_exclude") {
        os << "instance " << arg(e, "instance")
           << " excluded from the week's measurement (validity "
           << arg(e, "validity") << ")";
    } else if (e.kind == "fault_inject") {
        os << "fault injected: " << arg(e, "fault");
        for (const auto &[k, v] : e.args)
            if (k != "fault" && k != "plan")
                os << " " << k << "=" << v;
        if (!arg(e, "plan").empty())
            os << " (plan " << arg(e, "plan") << ")";
    } else if (e.kind == "fault_repair") {
        os << "trace repaired: instance " << arg(e, "instance") << ", "
           << arg(e, "samples") << " sample(s) restored";
    } else if (e.kind == "graph_eval") {
        os << "op '" << arg(e, "op") << "' executed (sig "
           << arg(e, "sig") << ")";
    } else if (e.kind == "graph_cache_hit") {
        os << "op '" << arg(e, "op") << "' served from cache (sig "
           << arg(e, "sig") << ")";
    } else if (e.kind == "span") {
        os << "span " << arg(e, "span") << " closed ("
           << arg(e, "dur_ns") << " ns)";
    } else if (e.kind == "scope") {
        os << "scope " << arg(e, "label");
    } else {
        os << e.kind;
        for (const auto &[k, v] : e.args)
            os << " " << k << "=" << v;
    }
    return os.str();
}

/** "a <- b <- c" chain of enclosing scopes, via parent ids. */
std::string
scopeChain(const JournalEvent &e,
           const std::map<std::uint64_t, const JournalEvent *> &by_seq)
{
    std::string chain;
    std::uint64_t parent = e.parent;
    for (int depth = 0; parent != 0 && depth < 16; ++depth) {
        const auto it = by_seq.find(parent);
        if (it == by_seq.end()) {
            chain += chain.empty() ? "" : " <- ";
            chain += "(evicted #" + std::to_string(parent) + ")";
            break;
        }
        const JournalEvent &p = *it->second;
        std::string name;
        if (p.kind == "scope")
            name = arg(p, "label");
        else if (p.kind == "graph_eval")
            name = "op '" + arg(p, "op") + "'";
        if (name.empty() || name == "op ''")
            name = p.kind + "#" + std::to_string(p.seq);
        chain += chain.empty() ? "" : " <- ";
        chain += name;
        parent = p.parent;
    }
    return chain;
}

} // namespace

bool
explainRecord(std::ostream &os, const std::vector<JournalEvent> &events,
              const ExplainQuery &query)
{
    std::map<std::uint64_t, const JournalEvent *> by_seq;
    for (const JournalEvent &e : events)
        by_seq.emplace(e.seq, &e);

    std::vector<const JournalEvent *> matched;
    for (const JournalEvent &e : events) {
        if (query.instance && (matchesInstance(e, *query.instance) ||
                               e.kind == "monitor_week"))
            matched.push_back(&e);
        else if (query.node && matchesNode(e, *query.node))
            matched.push_back(&e);
    }

    std::size_t specific = 0;
    for (const JournalEvent *e : matched)
        if (!query.instance || e->kind != "monitor_week")
            ++specific;

    if (query.instance)
        os << "decision history for instance " << *query.instance;
    else if (query.node)
        os << "decision history for graph node signature "
           << (query.node ? *query.node : 0);
    else
        os << "decision history";
    os << "\n  " << specific << " matching event(s)";
    if (query.instance && matched.size() > specific)
        os << " + " << matched.size() - specific
           << " global monitor-week record(s)";
    os << " out of " << events.size() << " in the journal\n";

    if (specific == 0) {
        os << "  (no decisions recorded for this query — the ring "
              "buffer may have evicted them; raise the capacity or "
              "narrow the run)\n";
        return false;
    }

    for (const JournalEvent *e : matched) {
        std::ostringstream tag;
        tag << "#" << std::setw(6) << std::setfill('0') << e->seq;
        os << "  " << tag.str() << " [" << e->kind << "] "
           << describe(*e) << "\n";
        const std::string chain = scopeChain(*e, by_seq);
        if (!chain.empty())
            os << "          within " << chain << "\n";
    }
    return true;
}

} // namespace sosim::obs

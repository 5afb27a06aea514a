#include "trace_export.h"

#include <algorithm>
#include <cctype>
#include <charconv>
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
std::string
micros(std::uint64_t ns)
{
    char buf[8];
    std::snprintf(buf, sizeof buf, ".%03u", static_cast<unsigned>(ns % 1000));
    return std::to_string(ns / 1000) + buf;
}

/**
 * The journal schema's names: one table per enum, and the only place
 * each name is spelled.  Writers map values to names through it and
 * the explain reader maps names back.
 */
template <typename Enum>
struct Named {
    Enum value;
    std::string_view name;
};

constexpr Named<EventKind> kKindNames[] = {
    {EventKind::None, "none"},
    {EventKind::Span, "span"},
    {EventKind::Scope, "scope"},
    {EventKind::SwapAccept, "swap_accept"},
    {EventKind::SwapReject, "swap_reject"},
    {EventKind::MonitorWeek, "monitor_week"},
    {EventKind::MonitorExclude, "monitor_exclude"},
    {EventKind::FaultInject, "fault_inject"},
    {EventKind::FaultRepair, "fault_repair"},
    {EventKind::GraphEval, "graph_eval"},
    {EventKind::GraphCacheHit, "graph_cache_hit"},
    {EventKind::IngestReject, "ingest_reject"},
    {EventKind::EpochCommit, "epoch_commit"},
    {EventKind::EpochShed, "epoch_shed"},
    {EventKind::CheckpointWrite, "checkpoint_write"},
    {EventKind::CheckpointRestore, "checkpoint_restore"},
};

/** Reject reasons also carry their explain wording and whether the
 *  event's `nearest` partner is a real near miss.  Pruned and
 *  validity-gate rejects note every partner with margin 0, so their
 *  `nearest` is merely the first partner noted (core/remap.cc). */
struct ReasonName : Named<RejectReason> {
    std::string_view explain;
    bool nearestIsMiss;
};

constexpr ReasonName kReasonNames[] = {
    {{RejectReason::EarlyReject, "early_reject"},
     "showed no improvement at the donor rack (early-reject kernel gate)",
     true},
    {{RejectReason::ValidityGate, "validity_gate"},
     "excluded by the validity gate", false},
    {{RejectReason::NoImprovement, "no_improvement"},
     "showed no net improvement after the full swap", true},
    {{RejectReason::Pruned, "pruned"},
     "pruned by the cluster candidate index before evaluation", false},
};

constexpr Named<FaultEventCode> kFaultNames[] = {
    {FaultEventCode::ClockSkew, "clock_skew"},
    {FaultEventCode::StuckSensor, "stuck_sensor"},
    {FaultEventCode::Gap, "gap"},
    {FaultEventCode::TraceLoss, "trace_loss"},
    {FaultEventCode::BreakerTrip, "breaker_trip"},
    {FaultEventCode::Derate, "derate"},
};

/** The journal name of an enum value ("unknown" when out of range). */
template <typename Entry, std::size_t N, typename Code>
std::string_view
nameOf(const Entry (&table)[N], Code code)
{
    for (const Entry &entry : table)
        if (entry.value == static_cast<decltype(Entry::value)>(code))
            return entry.name;
    return "unknown";
}

/** The table entry spelled `name`, or nullptr. */
template <typename Entry, std::size_t N>
const Entry *
byName(const Entry (&table)[N], std::string_view name)
{
    for (const Entry &entry : table)
        if (entry.name == name)
            return &entry;
    return nullptr;
}

/**
 * The kind-specific payload of one event as members of the open JSON
 * object — shared by the journal writer and the Chrome-trace writer.
 * This is the journal's args schema.
 */
void
writeArgs(JsonWriter &json, const Event &e)
{
    const EventRecorder &rec = EventRecorder::instance();
    const auto nonzero = [&json](std::string_view key, std::uint64_t v) {
        if (v != 0)
            json.member(key, v);
    };
    switch (e.kind) {
      case EventKind::None:
        break;
      case EventKind::Span:
        json.member("span", rec.labelOf(e.name)).member("dur_ns", e.b);
        break;
      case EventKind::Scope:
        json.member("label", rec.labelOf(e.name));
        nonzero("a", e.a);
        nonzero("b", e.b);
        nonzero("c", e.c);
        nonzero("d", e.d);
        break;
      case EventKind::SwapAccept:
        json.member("inst_a", e.a).member("inst_b", e.b);
        json.member("rack_a", e.c).member("rack_b", e.d);
        json.member("gain", e.x).member("delta_a", e.y).member("delta_b", e.z);
        break;
      case EventKind::SwapReject:
        // Coalesced: one event per candidate per reason per remap
        // round — `partners` rejected pairings, `nearest` the partner
        // with the smallest score deficit (see core/remap.cc).
        json.member("reason", nameOf(kReasonNames, e.code));
        json.member("inst_a", e.a).member("partners", e.b);
        json.member("rack_a", e.c).member("nearest", e.d);
        json.member("score_before", e.x).member("score_after", e.y);
        break;
      case EventKind::MonitorWeek:
        json.member("week", e.a).member("action", e.b);
        if (e.name != 0)
            json.member("action_name", rec.labelOf(e.name));
        json.member("degraded", e.code).member("excluded", e.c);
        json.member("repaired_samples", e.d);
        json.member("fragmentation_ratio", e.x);
        json.member("valid_fraction", e.y).member("widen", e.z);
        break;
      case EventKind::MonitorExclude:
        json.member("instance", e.a).member("validity", e.x);
        break;
      case EventKind::FaultInject:
        json.member("fault", nameOf(kFaultNames, e.code));
        switch (static_cast<FaultEventCode>(e.code)) {
          case FaultEventCode::ClockSkew:
            json.member("instance", e.a);
            json.member("offset", static_cast<std::int64_t>(e.b));
            break;
          case FaultEventCode::StuckSensor:
            json.member("instance", e.a).member("windows", e.b);
            json.member("samples", e.c);
            break;
          case FaultEventCode::Gap:
            json.member("instance", e.a).member("gaps", e.b);
            json.member("samples", e.c);
            break;
          case FaultEventCode::TraceLoss:
            json.member("instance", e.a);
            break;
          case FaultEventCode::BreakerTrip:
            json.member("rack", e.a).member("at_sample", e.b);
            json.member("duration", e.c);
            break;
          case FaultEventCode::Derate:
            json.member("node", e.a).member("factor", e.x);
            break;
        }
        nonzero("plan", e.d);
        break;
      case EventKind::FaultRepair:
        json.member("instance", e.a).member("samples", e.b);
        break;
      case EventKind::GraphEval:
        json.member("op", rec.labelOf(e.name)).member("sig", e.a);
        nonzero("input_fp0", e.b);
        nonzero("input_fp1", e.c);
        nonzero("input_fp2", e.d);
        break;
      case EventKind::GraphCacheHit:
        json.member("op", rec.labelOf(e.name)).member("sig", e.a);
        break;
      case EventKind::IngestReject:
        json.member("reason", rec.labelOf(e.name));
        json.member("instance", e.a).member("tick", e.b);
        json.member("watts", e.x);
        break;
      case EventKind::EpochCommit:
        json.member("epoch", e.a).member("frontier", e.b);
        json.member("action", e.c).member("swaps", e.d);
        json.member("fragmentation_ratio", e.x).member("degraded", e.code);
        break;
      case EventKind::EpochShed:
        json.member("epoch", e.a).member("queue_depth", e.b);
        break;
      case EventKind::CheckpointWrite:
        json.member("epoch", e.a).member("bytes", e.b).member("slot", e.c);
        break;
      case EventKind::CheckpointRestore:
        json.member("epoch", e.a).member("frontier", e.b);
        break;
    }
}

/** The recording's wall-clock epoch, or now when nothing was recorded. */
std::string
recordingStamp()
{
    const std::string epoch = EventRecorder::instance().wallEpoch();
    return epoch.empty() ? utcTimestamp() : epoch;
}

} // namespace

void
writeEventJournal(std::ostream &os, const EventSnapshot &snapshot,
                  const std::string &label)
{
    JsonWriter json(os);
    json.open('{').header(label, recordingStamp());
    json.member("dropped", snapshot.dropped);
    json.member("recorded", snapshot.recorded);
    json.member("events", snapshot.events.size()).close();
    for (const Event &e : snapshot.events) {
        json.open('{').member("seq", e.seq).member("parent", e.parent);
        json.member("thread", e.thread).member("t_ns", e.steadyNanos);
        json.member("kind", nameOf(kKindNames, e.kind));
        json.optionalObject("args");
        writeArgs(json, e);
        json.close().close();
    }
}

void
writeChromeTrace(std::ostream &os, const std::vector<Event> &events,
                 const std::string &label)
{
    constexpr JsonLayout kLines{"\n", ",\n", "\n"};
    const EventRecorder &rec = EventRecorder::instance();
    JsonWriter json(os);
    json.open('{', kLines).key("traceEvents").open('[', kLines);
    const auto metadata = [&json](unsigned tid, std::string_view name,
                                  std::string_view value) {
        json.open('{').member("ph", "M").member("pid", 0);
        json.member("tid", tid).member("name", name);
        json.key("args").open('{').member("name", value).close().close();
    };
    metadata(0, "process_name", "sosim");
    std::set<unsigned> threads;
    for (const Event &e : events)
        threads.insert(e.thread);
    for (const unsigned t : threads)
        metadata(t, "thread_name", "worker " + std::to_string(t));
    for (const Event &e : events) {
        json.open('{');
        if (e.kind == EventKind::Span) {
            // The slice is named by the span's last path component (span
            // names never contain '/').
            const std::string path = rec.labelOf(e.name);
            json.member("ph", "X").member("pid", 0).member("tid", e.thread);
            json.key("ts").number(micros(e.steadyNanos));
            json.key("dur").number(micros(e.b));
            json.member("name", path.substr(path.rfind('/') + 1));
            json.member("cat", nameOf(kKindNames, e.kind));
        } else {
            json.member("ph", "i").member("s", "t").member("pid", 0);
            json.member("tid", e.thread);
            json.key("ts").number(micros(e.steadyNanos));
            json.member("name", nameOf(kKindNames, e.kind));
            json.member("cat", "decision");
        }
        json.key("args").open('{');
        json.member("seq", e.seq).member("parent", e.parent);
        writeArgs(json, e);
        json.close().close();
    }
    json.close().member("displayTimeUnit", "ms");
    json.key("otherData").open('{').header(label, recordingStamp()).close();
    json.close();
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

/** A journal row with its kind parsed back through the name table
 *  (None for a name the table does not hold). */
struct Row {
    const JournalEvent *e;
    EventKind kind;
};

Row
parseRow(const JournalEvent &e)
{
    const auto *entry = byName(kKindNames, e.kind);
    return {&e, entry != nullptr ? entry->value : EventKind::None};
}

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

/** Whether a swap_reject's `nearest` partner is a real near miss (an
 *  unknown reason keeps it, as its explain line shows it). */
bool
nearestIsMiss(const JournalEvent &e)
{
    const ReasonName *reason = byName(kReasonNames, arg(e, "reason"));
    return reason == nullptr || reason->nearestIsMiss;
}

bool
matchesInstance(const Row &row, std::uint64_t id)
{
    const JournalEvent &e = *row.e;
    switch (row.kind) {
      case EventKind::SwapAccept:
        return argEquals(e, "inst_a", id) || argEquals(e, "inst_b", id);
      case EventKind::SwapReject:
        return argEquals(e, "inst_a", id) ||
               (nearestIsMiss(e) && argEquals(e, "nearest", id));
      case EventKind::MonitorExclude:
      case EventKind::FaultInject:
      case EventKind::FaultRepair:
        return argEquals(e, "instance", id);
      default:
        return false;
    }
}

bool
matchesNode(const Row &row, std::uint64_t sig)
{
    return (row.kind == EventKind::GraphEval ||
            row.kind == EventKind::GraphCacheHit) &&
           argEquals(*row.e, "sig", sig);
}

/** One human-readable sentence for a matched event (k=v fallback). */
void
describe(std::ostream &os, const Row &row)
{
    const JournalEvent &e = *row.e;
    switch (row.kind) {
      case EventKind::SwapAccept:
        os << "accepted swap: instance " << arg(e, "inst_a")
           << " <-> instance " << arg(e, "inst_b") << " (rack "
           << arg(e, "rack_a") << " <-> rack " << arg(e, "rack_b")
           << "), gain " << arg(e, "gain") << " (delta A "
           << arg(e, "delta_a") << ", delta B " << arg(e, "delta_b")
           << ")";
        break;
      case EventKind::SwapReject: {
        const std::string reason = arg(e, "reason");
        os << "rejected pairings: instance " << arg(e, "inst_a")
           << " at rack " << arg(e, "rack_a") << " — "
           << arg(e, "partners") << " partner(s) ";
        if (const ReasonName *known = byName(kReasonNames, reason))
            os << known->explain;
        else
            os << "rejected: " << reason;
        if (nearestIsMiss(e) && !arg(e, "nearest").empty())
            os << "; nearest miss: instance " << arg(e, "nearest")
               << ", score " << arg(e, "score_before") << " -> "
               << arg(e, "score_after");
        break;
      }
      case EventKind::MonitorWeek:
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
        break;
      case EventKind::MonitorExclude:
        os << "instance " << arg(e, "instance")
           << " excluded from the week's measurement (validity "
           << arg(e, "validity") << ")";
        break;
      case EventKind::FaultInject:
        os << "fault injected: " << arg(e, "fault");
        for (const auto &[k, v] : e.args)
            if (k != "fault" && k != "plan")
                os << " " << k << "=" << v;
        if (!arg(e, "plan").empty())
            os << " (plan " << arg(e, "plan") << ")";
        break;
      case EventKind::FaultRepair:
        os << "trace repaired: instance " << arg(e, "instance") << ", "
           << arg(e, "samples") << " sample(s) restored";
        break;
      case EventKind::GraphEval:
        os << "op '" << arg(e, "op") << "' executed (sig "
           << arg(e, "sig") << ")";
        break;
      case EventKind::GraphCacheHit:
        os << "op '" << arg(e, "op") << "' served from cache (sig "
           << arg(e, "sig") << ")";
        break;
      default:
        os << e.kind;
        for (const auto &[k, v] : e.args)
            os << " " << k << "=" << v;
    }
}

/** "a <- b <- c" chain of enclosing scopes, via parent ids. */
std::string
scopeChain(const Row &row, const std::map<std::uint64_t, Row> &by_seq)
{
    std::string chain;
    std::uint64_t parent = row.e->parent;
    for (int depth = 0; parent != 0 && depth < 16; ++depth) {
        const auto it = by_seq.find(parent);
        if (it == by_seq.end()) {
            chain += chain.empty() ? "" : " <- ";
            chain += "(evicted #" + std::to_string(parent) + ")";
            break;
        }
        const JournalEvent &p = *it->second.e;
        std::string name;
        if (it->second.kind == EventKind::Scope)
            name = arg(p, "label");
        else if (it->second.kind == EventKind::GraphEval &&
                 !arg(p, "op").empty())
            name = "op '" + arg(p, "op") + "'";
        if (name.empty())
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
    std::map<std::uint64_t, Row> by_seq;
    // Every monitor week rides along with an instance's history as
    // global context; only the other matches count as specific.
    std::vector<Row> matched;
    std::size_t specific = 0;
    for (const JournalEvent &e : events) {
        const Row row = parseRow(e);
        by_seq.emplace(e.seq, row);
        const bool hit =
            (query.instance && matchesInstance(row, *query.instance)) ||
            (query.node && matchesNode(row, *query.node));
        if (hit || (query.instance && row.kind == EventKind::MonitorWeek))
            matched.push_back(row);
        specific += hit ? 1 : 0;
    }

    if (query.instance)
        os << "decision history for instance " << *query.instance;
    else if (query.node)
        os << "decision history for graph node signature " << *query.node;
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

    for (const Row &row : matched) {
        std::ostringstream tag;
        tag << "#" << std::setw(6) << std::setfill('0') << row.e->seq;
        os << "  " << tag.str() << " [" << row.e->kind << "] ";
        describe(os, row);
        os << "\n";
        const std::string chain = scopeChain(row, by_seq);
        if (!chain.empty())
            os << "          within " << chain << "\n";
    }
    return true;
}

} // namespace sosim::obs

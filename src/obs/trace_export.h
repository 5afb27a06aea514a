#ifndef SOSIM_OBS_TRACE_EXPORT_H
#define SOSIM_OBS_TRACE_EXPORT_H

/**
 * @file
 * Sinks for the flight recorder (obs/events.h):
 *
 *   - writeEventJournal: JSONL — one header object (label, wall epoch,
 *     drop/record totals), then one flat JSON object per event with
 *     seq/parent/thread/t_ns/kind plus kind-specific "args".  This is
 *     the durable artifact behind `--flight-record PATH` and the input
 *     to `sosim explain`.
 *
 *   - writeChromeTrace: a Chrome trace / Perfetto JSON document merging
 *     the span timeline and the decision journal: spans become "X"
 *     (complete) duration events on per-thread tracks, decisions become
 *     instant events with their payload as args.  Load the file in
 *     chrome://tracing or ui.perfetto.dev.
 *
 *   - readEventJournal / explainRecord: parse a journal back and
 *     reconstruct the causal decision history of one instance (or one
 *     graph node signature) — the `sosim explain` backend.
 *
 *   - validateJson: a strict syntax check used by tests and the CLI to
 *     assert emitted documents actually parse.
 *
 * Span events carry their "a/b/c" span path as an interned label, like
 * scope labels, so the writers never touch the span tree: a journal
 * written after SpanTracer::reset() still names every span.
 */

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/events.h"

namespace sosim::obs {

/**
 * Write the JSONL journal for an explicit event snapshot; the header's
 * drop/record totals are the snapshot's own.
 */
void writeEventJournal(std::ostream &os, const EventSnapshot &snapshot,
                       const std::string &label);

/** Write a Chrome-trace JSON document for an explicit snapshot. */
void writeChromeTrace(std::ostream &os, const std::vector<Event> &events,
                      const std::string &label);

/**
 * Strict JSON syntax validation (objects, arrays, strings, numbers,
 * true/false/null; no trailing text).  On failure returns false and,
 * when `error` is non-null, stores a byte offset + reason message.
 */
bool validateJson(std::string_view text, std::string *error = nullptr);

/** One journal row parsed back from JSONL (args hold raw scalar text,
 *  i.e. numbers unquoted and strings without their quotes). */
struct JournalEvent {
    std::uint64_t seq = 0;
    std::uint64_t parent = 0;
    std::uint64_t tNanos = 0;
    unsigned thread = 0;
    std::string kind;
    std::map<std::string, std::string> args;
};

/**
 * Parse a journal written by writeEventJournal.  Lines without a "kind"
 * key (the header) are skipped.  Returns false on malformed input with
 * a line-numbered message in `error` when non-null.
 */
bool readEventJournal(std::istream &is, std::vector<JournalEvent> &out,
                      std::string *error = nullptr);

/** What `sosim explain` should reconstruct: exactly one of the two. */
struct ExplainQuery {
    std::optional<std::uint64_t> instance;
    std::optional<std::uint64_t> node;
};

/**
 * Write a human-readable causal decision history for the queried
 * instance (swap accepts/rejects, exclusions, faults, repairs, plus
 * every global monitor-week event) or graph-node signature (evals and
 * cache hits).  Each line shows the event and its scope chain,
 * reconstructed through parent ids.  Returns false (after writing a
 * note) when the journal holds no matching events.
 */
bool explainRecord(std::ostream &os,
                   const std::vector<JournalEvent> &events,
                   const ExplainQuery &query);

} // namespace sosim::obs

#endif // SOSIM_OBS_TRACE_EXPORT_H

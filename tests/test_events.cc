/**
 * @file
 * Tests for the flight recorder (src/obs/events.*, src/obs/trace_export.*):
 * ring-buffer wrap and drop accounting, causal-scope propagation across
 * the thread pool, fake-time determinism, the JSONL journal round trip,
 * the Chrome-trace export, committed bytes for the whole journal schema,
 * the strict JSON validator, mutation fuzzing of the journal reader, the
 * `sosim explain` golden decision history on a pinned faulted pipeline,
 * and that recording never changes a pipeline's results.
 */

#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fingerprints.h"
#include "graph/ops.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/trace_export.h"
#include "serve/ring.h"
#include "util/parallel.h"
#include "workload/dc_presets.h"

namespace {

using namespace sosim;

/** Force a specific worker count for the duration of a scope. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(std::size_t n) { util::setThreadCount(n); }
    ~ScopedThreads() { util::setThreadCount(0); }
};

/** Leave the global recorder exactly as a fresh process would have it. */
class RecorderGuard
{
  public:
    RecorderGuard() { restore(); }
    ~RecorderGuard() { restore(); }

  private:
    static void restore()
    {
        auto &rec = obs::EventRecorder::instance();
        rec.setEnabled(false);
        rec.reset();
        obs::setFakeTime("");
    }
};

TEST(Recorder, DisabledStoresNothing)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();
    EXPECT_EQ(rec.record({.kind = obs::EventKind::FaultRepair, .a = 1}), 0u);
    EXPECT_EQ(rec.recorded(), 0u);
    EXPECT_TRUE(rec.collect().events.empty());
}

TEST(Recorder, RecordsCollectsInSeqOrderAndInternsLabels)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    rec.record({.kind = obs::EventKind::SwapAccept, .label = "first",
                .a = 10, .x = 1.5});
    rec.record({.kind = obs::EventKind::FaultRepair, .label = "second",
                .a = 11});
    rec.setEnabled(false);

    const auto events = rec.collect().events;
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].seq, 1u);
    EXPECT_EQ(events[1].seq, 2u);
    EXPECT_EQ(events[0].kind, obs::EventKind::SwapAccept);
    EXPECT_EQ(events[0].a, 10u);
    EXPECT_DOUBLE_EQ(events[0].x, 1.5);
    EXPECT_EQ(rec.labelOf(events[0].name), "first");
    EXPECT_EQ(rec.labelOf(events[1].name), "second");
    EXPECT_EQ(rec.recorded(), 2u);
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Recorder, RingWrapEvictsOldestAndCountsDrops)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();
    constexpr std::size_t kCap = obs::EventRecorder::kCapacity;
    rec.setEnabled(true);
    // Single-threaded: every event lands in one shard's ring, six past
    // its capacity.
    for (std::uint64_t i = 0; i < kCap + 6; ++i)
        rec.record({.kind = obs::EventKind::FaultInject, .a = i});
    rec.setEnabled(false);

    EXPECT_EQ(rec.recorded(), kCap + 6);
    EXPECT_EQ(rec.dropped(), 6u);
    const auto events = rec.collect().events;
    ASSERT_EQ(events.size(), kCap);
    // The survivors are the newest kCap, still in sequence order.
    for (std::size_t i = 0; i < kCap; ++i) {
        EXPECT_EQ(events[i].seq, 7u + i);
        EXPECT_EQ(events[i].a, 6u + i);
    }
}

TEST(Recorder, CollectWithClearEmptiesRingsButKeepsTotals)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    rec.record({.kind = obs::EventKind::GraphCacheHit, .a = 1});
    rec.setEnabled(false);
    EXPECT_EQ(rec.collect(true).events.size(), 1u);
    EXPECT_TRUE(rec.collect().events.empty());
    EXPECT_EQ(rec.recorded(), 1u);
}

TEST(Recorder, MacroDoesNotEvaluateArgumentsWhileIdle)
{
    RecorderGuard guard;
    int calls = 0;
    const auto touch = [&calls]() -> std::uint64_t { return ++calls; };
    // Idle recorder: the payload expression must not run.
    SOSIM_EVENT(.kind = obs::EventKind::FaultRepair, .a = touch());
    SOSIM_EVENT_SCOPE(.kind = obs::EventKind::Scope, .a = touch());
    EXPECT_EQ(calls, 0);
}

TEST(Recorder, FakeTimeMakesTimestampsSynthetic)
{
    RecorderGuard guard;
    obs::setFakeTime("2026-01-01T00:00:00Z");
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    rec.record({.kind = obs::EventKind::FaultRepair, .a = 1});
    rec.record({.kind = obs::EventKind::FaultRepair, .a = 2});
    rec.setEnabled(false);
    EXPECT_EQ(rec.wallEpoch(), "2026-01-01T00:00:00Z");
    const auto events = rec.collect().events;
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].steadyNanos, events[0].seq * 1000);
    EXPECT_EQ(events[1].steadyNanos, events[1].seq * 1000);
}

TEST(Recorder, ResetRewindsTheSequenceCounter)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    rec.record({.kind = obs::EventKind::GraphCacheHit});
    rec.record({.kind = obs::EventKind::GraphCacheHit});
    rec.reset();
    rec.record({.kind = obs::EventKind::GraphCacheHit});
    rec.setEnabled(false);
    const auto events = rec.collect().events;
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].seq, 1u);
}

TEST(Recorder, MacroRecordsWhenEnabled)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    int calls = 0;
    const auto touch = [&calls]() -> std::uint64_t { return ++calls; };
    SOSIM_EVENT(.kind = obs::EventKind::FaultRepair, .a = touch());
    rec.setEnabled(false);
    EXPECT_EQ(calls, 1);
    const auto events = rec.collect().events;
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, obs::EventKind::FaultRepair);
    EXPECT_EQ(events[0].a, 1u);
}

TEST(Scopes, EventsChainToEnclosingScopeAndRestore)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    EXPECT_EQ(obs::threadContext().scope, 0u);
    {
        SOSIM_EVENT_SCOPE(.kind = obs::EventKind::Scope,
                          .label = "outer");
        const std::uint64_t outer = obs::threadContext().scope;
        EXPECT_NE(outer, 0u);
        {
            SOSIM_EVENT_SCOPE(.kind = obs::EventKind::Scope,
                              .label = "inner");
            EXPECT_NE(obs::threadContext().scope, outer);
            SOSIM_EVENT(.kind = obs::EventKind::SwapReject, .a = 5);
        }
        EXPECT_EQ(obs::threadContext().scope, outer);
    }
    EXPECT_EQ(obs::threadContext().scope, 0u);
    rec.setEnabled(false);

    const auto events = rec.collect().events;
    ASSERT_EQ(events.size(), 3u);
    const auto &outer = events[0];
    const auto &inner = events[1];
    const auto &reject = events[2];
    EXPECT_EQ(outer.parent, 0u);
    EXPECT_EQ(inner.parent, outer.seq);
    EXPECT_EQ(reject.parent, inner.seq);
}

TEST(Scopes, ParallelForPropagatesTheSubmittingScope)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    std::uint64_t scope_seq = 0;
    {
        ScopedThreads threads(4);
        SOSIM_EVENT_SCOPE(.kind = obs::EventKind::Scope,
                          .label = "fanout");
        scope_seq = obs::threadContext().scope;
        util::parallelFor(64, [](std::size_t i) {
            SOSIM_EVENT(.kind = obs::EventKind::FaultRepair, .a = i);
        });
    }
    rec.setEnabled(false);

    ASSERT_NE(scope_seq, 0u);
    const auto events = rec.collect().events;
    ASSERT_EQ(events.size(), 65u);
    std::size_t chained = 0;
    for (const auto &e : events)
        if (e.kind == obs::EventKind::FaultRepair) {
            EXPECT_EQ(e.parent, scope_seq);
            ++chained;
        }
    // Worker-side decisions chain to the submitting stage, not to
    // detached per-thread roots.
    EXPECT_EQ(chained, 64u);
}

TEST(ChromeTrace, SpanSlicesAgreeWithTheSpanTree)
{
    RecorderGuard guard;
    auto &tracer = obs::SpanTracer::instance();
    tracer.reset();
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    for (int i = 0; i < 3; ++i) {
        SOSIM_SPAN("test.flight_span");
        volatile int sink = 0;
        for (int j = 0; j < 1000; ++j)
            sink = sink + j;
    }
    rec.setEnabled(false);

    const auto events = rec.collect().events;
    std::uint64_t sliced_ns = 0;
    std::size_t slices = 0;
    for (const auto &e : events)
        if (e.kind == obs::EventKind::Span) {
            sliced_ns += e.b;
            ++slices;
        }
    EXPECT_EQ(slices, 3u);
    // Each slice's duration is the exact value ~ScopedSpan added to the
    // node, so the journal and printSpanTree totals agree to the ns.
    const auto &root = tracer.root();
    ASSERT_EQ(root.children.count("test.flight_span"), 1u);
    EXPECT_EQ(sliced_ns,
              root.children.at("test.flight_span")->totalNanos.load());

    std::ostringstream trace;
    obs::writeChromeTrace(trace, events, "unit");
    std::string error;
    EXPECT_TRUE(obs::validateJson(trace.str(), &error)) << error;
    EXPECT_NE(trace.str().find("test.flight_span"), std::string::npos);
    EXPECT_NE(trace.str().find("\"ph\": \"X\""), std::string::npos);
    tracer.reset();
}

TEST(Journal, WriteReadRoundTrip)
{
    RecorderGuard guard;
    obs::setFakeTime("2026-01-01T00:00:00Z");
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    rec.record({.kind = obs::EventKind::SwapReject,
                .code = static_cast<std::uint32_t>(
                    obs::RejectReason::EarlyReject),
                .a = 3, .b = 9, .c = 1, .d = 2, .x = 0.5, .y = 0.25});
    rec.record({.kind = obs::EventKind::MonitorWeek, .code = 1,
                .label = "remeasure", .a = 2, .x = 1.5, .y = 0.9,
                .z = 2.0});
    rec.setEnabled(false);

    std::ostringstream out;
    obs::writeEventJournal(out, rec.collect(), "unit");

    // Every line is itself strict JSON.
    std::istringstream lines(out.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        std::string error;
        EXPECT_TRUE(obs::validateJson(line, &error))
            << error << " in: " << line;
        ++count;
    }
    EXPECT_EQ(count, 3u); // Header + two events.
    EXPECT_NE(out.str().find("\"label\": \"unit\""), std::string::npos);

    std::istringstream in(out.str());
    std::vector<obs::JournalEvent> parsed;
    std::string error;
    ASSERT_TRUE(obs::readEventJournal(in, parsed, &error)) << error;
    ASSERT_EQ(parsed.size(), 2u); // The header row is skipped.
    EXPECT_EQ(parsed[0].kind, "swap_reject");
    EXPECT_EQ(parsed[0].seq, 1u);
    EXPECT_EQ(parsed[0].tNanos, 1000u);
    EXPECT_EQ(parsed[0].args.at("reason"), "early_reject");
    EXPECT_EQ(parsed[0].args.at("inst_a"), "3");
    EXPECT_EQ(parsed[0].args.at("partners"), "9");
    EXPECT_EQ(parsed[0].args.at("nearest"), "2");
    EXPECT_EQ(parsed[0].args.at("score_before"), "0.5");
    EXPECT_EQ(parsed[1].kind, "monitor_week");
    EXPECT_EQ(parsed[1].args.at("week"), "2");
    EXPECT_EQ(parsed[1].args.at("degraded"), "1");
    EXPECT_EQ(parsed[1].args.at("action_name"), "remeasure");
}

TEST(Journal, HeaderTotalsAreTheSnapshots)
{
    RecorderGuard guard;
    obs::setFakeTime("2026-01-01T00:00:00Z");
    auto &rec = obs::EventRecorder::instance();
    constexpr std::size_t kCap = obs::EventRecorder::kCapacity;
    rec.setEnabled(true);
    // Single-threaded: every event lands in one shard's ring, six past
    // its capacity.
    for (std::uint64_t i = 0; i < kCap + 6; ++i)
        rec.record({.kind = obs::EventKind::FaultInject, .a = i});
    const obs::EventSnapshot snapshot = rec.collect();
    EXPECT_EQ(snapshot.events.size(), kCap);
    EXPECT_EQ(snapshot.dropped, 6u);
    EXPECT_EQ(snapshot.recorded, kCap + 6);

    // Recording goes on after the snapshot was taken.
    for (std::uint64_t i = 0; i < 5; ++i)
        rec.record({.kind = obs::EventKind::FaultInject, .a = i});
    rec.setEnabled(false);
    ASSERT_EQ(rec.recorded(), kCap + 11);

    std::ostringstream out;
    obs::writeEventJournal(out, snapshot, "unit");
    const std::string header = out.str().substr(0, out.str().find('\n'));
    const std::string totals = "\"dropped\": 6, \"recorded\": " +
                               std::to_string(kCap + 6) +
                               ", \"events\": " + std::to_string(kCap);
    EXPECT_NE(header.find(totals), std::string::npos) << header;
}

TEST(Journal, SpanEventsSurviveSpanTreeReset)
{
    RecorderGuard guard;
    auto &tracer = obs::SpanTracer::instance();
    tracer.reset();
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    {
        obs::ScopedSpan span("stage.a");
    }
    rec.setEnabled(false);
    const auto snapshot = rec.collect();
    // Destroys the span node: the writers must not need it.
    tracer.reset();

    std::ostringstream journal;
    obs::writeEventJournal(journal, snapshot, "unit");
    EXPECT_NE(journal.str().find(R"("span": "stage.a")"), std::string::npos)
        << journal.str();
    std::ostringstream trace;
    obs::writeChromeTrace(trace, snapshot.events, "unit");
    EXPECT_NE(trace.str().find(R"("name": "stage.a", "cat": "span")"),
              std::string::npos)
        << trace.str();
}

TEST(Journal, IngestRejectReasonIsTheStatusName)
{
    RecorderGuard guard;
    serve::StreamRing ring(1, 2, 60);
    ring.advanceTo(5);
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    EXPECT_EQ(ring.ingest({1, 0, 1.0}), serve::IngestStatus::RejectedStale);
    rec.setEnabled(false);

    std::ostringstream journal;
    obs::writeEventJournal(journal, rec.collect(), "unit");
    EXPECT_NE(journal.str().find(R"("reason": "rejected_stale")"),
              std::string::npos)
        << journal.str();
}

TEST(Journal, RejectsMalformedLines)
{
    for (const char *bad : {
             "{\"seq\": 1, \"kind\": \"span\"",
             // A non-number seq, and text after the closing brace.
             "{\"seq\": zz, \"kind\": \"span\"}",
             "{\"seq\": 1, \"kind\": \"span\"} trailing",
             // Valid JSON: a negative seq, an args array.
             "{\"seq\": -1, \"kind\": \"span\"}",
             "{\"seq\": 1, \"args\": [], \"kind\": \"span\"}",
         }) {
        std::istringstream in(std::string("{\"label\": \"x\"}\n") + bad +
                              "\n");
        std::vector<obs::JournalEvent> parsed;
        std::string error;
        EXPECT_FALSE(obs::readEventJournal(in, parsed, &error)) << bad;
        EXPECT_NE(error.find("line 2"), std::string::npos) << bad;
    }
}

TEST(Journal, UnescapesStrings)
{
    std::istringstream in(R"({"seq": 3, "kind": "k\u00e9", )"
                          R"("args": {"s": "a\"b\\c\n\u0041", "n": 7}})"
                          "\n");
    std::vector<obs::JournalEvent> parsed;
    std::string error;
    ASSERT_TRUE(obs::readEventJournal(in, parsed, &error)) << error;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].seq, 3u);
    EXPECT_EQ(parsed[0].kind, "k\xc3\xa9");
    EXPECT_EQ(parsed[0].args.at("s"), "a\"b\\c\nA");
    EXPECT_EQ(parsed[0].args.at("n"), "7");
}

/** Header label of the pinned journal: a quote, a backslash, a newline. */
constexpr const char *kHostileLabel = "say \"hi\" \\ then\nnext";

/**
 * A hand-made journal covering the whole schema: every EventKind (plus
 * one out-of-range kind), every RejectReason (plus an unknown code),
 * every FaultEventCode, scope and graph-eval events with zero and
 * non-zero optional slots, NaN and infinities, a hostile label, and
 * parent links through a scope, a graph op, a monitor week, an unknown
 * kind and an evicted event.  Built by hand, not recorded, so seqs,
 * threads and timestamps do not depend on test order.
 */
std::vector<obs::Event>
pinnedSchemaEvents()
{
    using K = obs::EventKind;
    auto &rec = obs::EventRecorder::instance();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<obs::Event> events;
    const auto add = [&](obs::Event e, std::string_view label = {}) {
        e.seq = events.size() + 1;
        e.steadyNanos = e.seq * 1234;
        e.name = label.empty() ? 0 : rec.internLabel(label);
        events.push_back(e);
    };
    const auto code = [](auto c) { return static_cast<std::uint32_t>(c); };
    add({.kind = K::Scope}, "pipeline");
    add({.parent = 1, .b = 2500, .kind = K::Span}, "pipeline/place/leaf");
    add({.parent = 1, .a = 1, .b = 2, .c = 3, .d = 4, .kind = K::Scope,
         .thread = 3},
        kHostileLabel);
    add({.parent = 3, .a = 2748, .kind = K::GraphEval, .thread = 3},
        "op.remap");
    add({.parent = 1, .a = 77, .b = 11, .c = 12, .d = 13,
         .kind = K::GraphEval},
        "op.place");
    add({.parent = 1, .a = 2748, .kind = K::GraphCacheHit}, "op.remap");
    add({.parent = 4, .a = 7, .b = 9, .c = 1, .d = 2, .x = nan, .y = inf,
         .z = -0.125, .kind = K::SwapAccept, .thread = 3});
    add({.parent = 4, .a = 7, .b = 3, .c = 1, .d = 8, .x = 1.5, .y = 1.25,
         .code = code(obs::RejectReason::EarlyReject),
         .kind = K::SwapReject, .thread = 3});
    add({.parent = 4, .a = 5, .b = 2, .d = 6,
         .code = code(obs::RejectReason::ValidityGate),
         .kind = K::SwapReject, .thread = 3});
    add({.parent = 4, .a = 11, .b = 4, .c = 2, .d = 7, .x = 2, .y = 1.75,
         .code = code(obs::RejectReason::NoImprovement),
         .kind = K::SwapReject, .thread = 3});
    add({.parent = 4, .a = 7, .b = 10, .c = 1,
         .code = code(obs::RejectReason::Pruned), .kind = K::SwapReject,
         .thread = 3});
    add({.parent = 999, .a = 7, .b = 1, .c = 1, .d = 3, .x = -inf,
         .kind = K::SwapReject});
    add({.parent = 1, .a = 0, .b = 1, .c = 2, .d = 40, .x = 1.3, .y = 0.95,
         .z = 1.5, .code = 1, .kind = K::MonitorWeek},
        "remeasure");
    add({.parent = 1, .a = 1, .x = 1.1, .y = 1, .z = 1,
         .kind = K::MonitorWeek});
    add({.parent = 13, .a = 7, .x = 0.42, .kind = K::MonitorExclude});
    add({.parent = 1, .kind = K::Scope});
    add({.parent = 16, .a = 7, .b = static_cast<std::uint64_t>(-300),
         .d = 5, .code = code(obs::FaultEventCode::ClockSkew),
         .kind = K::FaultInject});
    add({.parent = 16, .a = 7, .b = 2, .c = 12,
         .code = code(obs::FaultEventCode::StuckSensor),
         .kind = K::FaultInject});
    add({.parent = 16, .a = 3, .b = 4, .c = 9,
         .code = code(obs::FaultEventCode::Gap), .kind = K::FaultInject});
    add({.parent = 16, .a = 7, .code = code(obs::FaultEventCode::TraceLoss),
         .kind = K::FaultInject});
    add({.parent = 16, .a = 2, .b = 100, .c = 6,
         .code = code(obs::FaultEventCode::BreakerTrip),
         .kind = K::FaultInject});
    add({.parent = 16, .a = 1, .x = 0.9,
         .code = code(obs::FaultEventCode::Derate), .kind = K::FaultInject});
    add({.parent = 28, .a = 7, .b = 33, .kind = K::FaultRepair});
    add({.a = 7, .b = 12, .x = -inf, .kind = K::IngestReject},
        "rejected_stale");
    add({.a = 3, .b = 36, .c = 1, .d = 2, .x = nan, .code = 1,
         .kind = K::EpochCommit});
    add({.a = 4, .b = 2, .kind = K::EpochShed});
    add({.a = 3, .b = 4096, .c = 1, .kind = K::CheckpointWrite});
    add({.parent = 16, .a = 3, .b = 36, .kind = static_cast<K>(200)});
    add({.a = 3, .b = 36, .kind = K::CheckpointRestore});
    add({.kind = K::None});
    return events;
}

/** The pinned events' journal, written under fake time. */
std::string
pinnedJournal()
{
    obs::setFakeTime("2026-01-01T00:00:00Z");
    auto &rec = obs::EventRecorder::instance();
    // The header stamps the recorder's wall epoch: pin it too.
    rec.setEnabled(true);
    rec.setEnabled(false);
    std::ostringstream out;
    obs::writeEventJournal(out, {.events = pinnedSchemaEvents()},
                           kHostileLabel);
    return out.str();
}

std::vector<obs::JournalEvent>
readJournal(const std::string &text)
{
    std::istringstream in(text);
    std::vector<obs::JournalEvent> events;
    std::string error;
    EXPECT_TRUE(obs::readEventJournal(in, events, &error)) << error;
    return events;
}

std::string
explainText(const std::vector<obs::JournalEvent> &events,
            const obs::ExplainQuery &query)
{
    std::ostringstream os;
    EXPECT_TRUE(obs::explainRecord(os, events, query));
    return os.str();
}

/**
 * Committed bytes for the journal, the Chrome trace and both explain
 * modes over the pinned schema events.  Any change to a kind, reason or
 * fault name, an args key, the number format or the explain wording
 * shows up here.
 */
TEST(Journal, GoldenBytesPinTheWholeSchema)
{
    RecorderGuard guard;
    const std::string journal = pinnedJournal();
    std::ostringstream trace;
    obs::writeChromeTrace(trace, pinnedSchemaEvents(), kHostileLabel);
    const auto events = readJournal(journal);
    obs::ExplainQuery instance;
    instance.instance = 7;
    obs::ExplainQuery node;
    node.node = 2748;

    EXPECT_EQ(journal, R"golden({"label": "say \"hi\" \\ then\nnext", "timestamp_utc": "2026-01-01T00:00:00Z", "dropped": 0, "recorded": 0, "events": 30}
{"seq": 1, "parent": 0, "thread": 0, "t_ns": 1234, "kind": "scope", "args": {"label": "pipeline"}}
{"seq": 2, "parent": 1, "thread": 0, "t_ns": 2468, "kind": "span", "args": {"span": "pipeline/place/leaf", "dur_ns": 2500}}
{"seq": 3, "parent": 1, "thread": 3, "t_ns": 3702, "kind": "scope", "args": {"label": "say \"hi\" \\ then\nnext", "a": 1, "b": 2, "c": 3, "d": 4}}
{"seq": 4, "parent": 3, "thread": 3, "t_ns": 4936, "kind": "graph_eval", "args": {"op": "op.remap", "sig": 2748}}
{"seq": 5, "parent": 1, "thread": 0, "t_ns": 6170, "kind": "graph_eval", "args": {"op": "op.place", "sig": 77, "input_fp0": 11, "input_fp1": 12, "input_fp2": 13}}
{"seq": 6, "parent": 1, "thread": 0, "t_ns": 7404, "kind": "graph_cache_hit", "args": {"op": "op.remap", "sig": 2748}}
{"seq": 7, "parent": 4, "thread": 3, "t_ns": 8638, "kind": "swap_accept", "args": {"inst_a": 7, "inst_b": 9, "rack_a": 1, "rack_b": 2, "gain": null, "delta_a": null, "delta_b": -0.125}}
{"seq": 8, "parent": 4, "thread": 3, "t_ns": 9872, "kind": "swap_reject", "args": {"reason": "early_reject", "inst_a": 7, "partners": 3, "rack_a": 1, "nearest": 8, "score_before": 1.5, "score_after": 1.25}}
{"seq": 9, "parent": 4, "thread": 3, "t_ns": 11106, "kind": "swap_reject", "args": {"reason": "validity_gate", "inst_a": 5, "partners": 2, "rack_a": 0, "nearest": 6, "score_before": 0, "score_after": 0}}
{"seq": 10, "parent": 4, "thread": 3, "t_ns": 12340, "kind": "swap_reject", "args": {"reason": "no_improvement", "inst_a": 11, "partners": 4, "rack_a": 2, "nearest": 7, "score_before": 2, "score_after": 1.75}}
{"seq": 11, "parent": 4, "thread": 3, "t_ns": 13574, "kind": "swap_reject", "args": {"reason": "pruned", "inst_a": 7, "partners": 10, "rack_a": 1, "nearest": 0, "score_before": 0, "score_after": 0}}
{"seq": 12, "parent": 999, "thread": 0, "t_ns": 14808, "kind": "swap_reject", "args": {"reason": "unknown", "inst_a": 7, "partners": 1, "rack_a": 1, "nearest": 3, "score_before": null, "score_after": 0}}
{"seq": 13, "parent": 1, "thread": 0, "t_ns": 16042, "kind": "monitor_week", "args": {"week": 0, "action": 1, "action_name": "remeasure", "degraded": 1, "excluded": 2, "repaired_samples": 40, "fragmentation_ratio": 1.3, "valid_fraction": 0.95, "widen": 1.5}}
{"seq": 14, "parent": 1, "thread": 0, "t_ns": 17276, "kind": "monitor_week", "args": {"week": 1, "action": 0, "degraded": 0, "excluded": 0, "repaired_samples": 0, "fragmentation_ratio": 1.1, "valid_fraction": 1, "widen": 1}}
{"seq": 15, "parent": 13, "thread": 0, "t_ns": 18510, "kind": "monitor_exclude", "args": {"instance": 7, "validity": 0.42}}
{"seq": 16, "parent": 1, "thread": 0, "t_ns": 19744, "kind": "scope", "args": {"label": ""}}
{"seq": 17, "parent": 16, "thread": 0, "t_ns": 20978, "kind": "fault_inject", "args": {"fault": "clock_skew", "instance": 7, "offset": -300, "plan": 5}}
{"seq": 18, "parent": 16, "thread": 0, "t_ns": 22212, "kind": "fault_inject", "args": {"fault": "stuck_sensor", "instance": 7, "windows": 2, "samples": 12}}
{"seq": 19, "parent": 16, "thread": 0, "t_ns": 23446, "kind": "fault_inject", "args": {"fault": "gap", "instance": 3, "gaps": 4, "samples": 9}}
{"seq": 20, "parent": 16, "thread": 0, "t_ns": 24680, "kind": "fault_inject", "args": {"fault": "trace_loss", "instance": 7}}
{"seq": 21, "parent": 16, "thread": 0, "t_ns": 25914, "kind": "fault_inject", "args": {"fault": "breaker_trip", "rack": 2, "at_sample": 100, "duration": 6}}
{"seq": 22, "parent": 16, "thread": 0, "t_ns": 27148, "kind": "fault_inject", "args": {"fault": "derate", "node": 1, "factor": 0.9}}
{"seq": 23, "parent": 28, "thread": 0, "t_ns": 28382, "kind": "fault_repair", "args": {"instance": 7, "samples": 33}}
{"seq": 24, "parent": 0, "thread": 0, "t_ns": 29616, "kind": "ingest_reject", "args": {"reason": "rejected_stale", "instance": 7, "tick": 12, "watts": null}}
{"seq": 25, "parent": 0, "thread": 0, "t_ns": 30850, "kind": "epoch_commit", "args": {"epoch": 3, "frontier": 36, "action": 1, "swaps": 2, "fragmentation_ratio": null, "degraded": 1}}
{"seq": 26, "parent": 0, "thread": 0, "t_ns": 32084, "kind": "epoch_shed", "args": {"epoch": 4, "queue_depth": 2}}
{"seq": 27, "parent": 0, "thread": 0, "t_ns": 33318, "kind": "checkpoint_write", "args": {"epoch": 3, "bytes": 4096, "slot": 1}}
{"seq": 28, "parent": 16, "thread": 0, "t_ns": 34552, "kind": "unknown"}
{"seq": 29, "parent": 0, "thread": 0, "t_ns": 35786, "kind": "checkpoint_restore", "args": {"epoch": 3, "frontier": 36}}
{"seq": 30, "parent": 0, "thread": 0, "t_ns": 37020, "kind": "none"}
)golden");
    EXPECT_EQ(trace.str(), R"golden({
"traceEvents": [
{"ph": "M", "pid": 0, "tid": 0, "name": "process_name", "args": {"name": "sosim"}},
{"ph": "M", "pid": 0, "tid": 0, "name": "thread_name", "args": {"name": "worker 0"}},
{"ph": "M", "pid": 0, "tid": 3, "name": "thread_name", "args": {"name": "worker 3"}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 1.234, "name": "scope", "cat": "decision", "args": {"seq": 1, "parent": 0, "label": "pipeline"}},
{"ph": "X", "pid": 0, "tid": 0, "ts": 2.468, "dur": 2.500, "name": "leaf", "cat": "span", "args": {"seq": 2, "parent": 1, "span": "pipeline/place/leaf", "dur_ns": 2500}},
{"ph": "i", "s": "t", "pid": 0, "tid": 3, "ts": 3.702, "name": "scope", "cat": "decision", "args": {"seq": 3, "parent": 1, "label": "say \"hi\" \\ then\nnext", "a": 1, "b": 2, "c": 3, "d": 4}},
{"ph": "i", "s": "t", "pid": 0, "tid": 3, "ts": 4.936, "name": "graph_eval", "cat": "decision", "args": {"seq": 4, "parent": 3, "op": "op.remap", "sig": 2748}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 6.170, "name": "graph_eval", "cat": "decision", "args": {"seq": 5, "parent": 1, "op": "op.place", "sig": 77, "input_fp0": 11, "input_fp1": 12, "input_fp2": 13}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 7.404, "name": "graph_cache_hit", "cat": "decision", "args": {"seq": 6, "parent": 1, "op": "op.remap", "sig": 2748}},
{"ph": "i", "s": "t", "pid": 0, "tid": 3, "ts": 8.638, "name": "swap_accept", "cat": "decision", "args": {"seq": 7, "parent": 4, "inst_a": 7, "inst_b": 9, "rack_a": 1, "rack_b": 2, "gain": null, "delta_a": null, "delta_b": -0.125}},
{"ph": "i", "s": "t", "pid": 0, "tid": 3, "ts": 9.872, "name": "swap_reject", "cat": "decision", "args": {"seq": 8, "parent": 4, "reason": "early_reject", "inst_a": 7, "partners": 3, "rack_a": 1, "nearest": 8, "score_before": 1.5, "score_after": 1.25}},
{"ph": "i", "s": "t", "pid": 0, "tid": 3, "ts": 11.106, "name": "swap_reject", "cat": "decision", "args": {"seq": 9, "parent": 4, "reason": "validity_gate", "inst_a": 5, "partners": 2, "rack_a": 0, "nearest": 6, "score_before": 0, "score_after": 0}},
{"ph": "i", "s": "t", "pid": 0, "tid": 3, "ts": 12.340, "name": "swap_reject", "cat": "decision", "args": {"seq": 10, "parent": 4, "reason": "no_improvement", "inst_a": 11, "partners": 4, "rack_a": 2, "nearest": 7, "score_before": 2, "score_after": 1.75}},
{"ph": "i", "s": "t", "pid": 0, "tid": 3, "ts": 13.574, "name": "swap_reject", "cat": "decision", "args": {"seq": 11, "parent": 4, "reason": "pruned", "inst_a": 7, "partners": 10, "rack_a": 1, "nearest": 0, "score_before": 0, "score_after": 0}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 14.808, "name": "swap_reject", "cat": "decision", "args": {"seq": 12, "parent": 999, "reason": "unknown", "inst_a": 7, "partners": 1, "rack_a": 1, "nearest": 3, "score_before": null, "score_after": 0}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 16.042, "name": "monitor_week", "cat": "decision", "args": {"seq": 13, "parent": 1, "week": 0, "action": 1, "action_name": "remeasure", "degraded": 1, "excluded": 2, "repaired_samples": 40, "fragmentation_ratio": 1.3, "valid_fraction": 0.95, "widen": 1.5}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 17.276, "name": "monitor_week", "cat": "decision", "args": {"seq": 14, "parent": 1, "week": 1, "action": 0, "degraded": 0, "excluded": 0, "repaired_samples": 0, "fragmentation_ratio": 1.1, "valid_fraction": 1, "widen": 1}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 18.510, "name": "monitor_exclude", "cat": "decision", "args": {"seq": 15, "parent": 13, "instance": 7, "validity": 0.42}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 19.744, "name": "scope", "cat": "decision", "args": {"seq": 16, "parent": 1, "label": ""}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 20.978, "name": "fault_inject", "cat": "decision", "args": {"seq": 17, "parent": 16, "fault": "clock_skew", "instance": 7, "offset": -300, "plan": 5}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 22.212, "name": "fault_inject", "cat": "decision", "args": {"seq": 18, "parent": 16, "fault": "stuck_sensor", "instance": 7, "windows": 2, "samples": 12}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 23.446, "name": "fault_inject", "cat": "decision", "args": {"seq": 19, "parent": 16, "fault": "gap", "instance": 3, "gaps": 4, "samples": 9}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 24.680, "name": "fault_inject", "cat": "decision", "args": {"seq": 20, "parent": 16, "fault": "trace_loss", "instance": 7}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 25.914, "name": "fault_inject", "cat": "decision", "args": {"seq": 21, "parent": 16, "fault": "breaker_trip", "rack": 2, "at_sample": 100, "duration": 6}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 27.148, "name": "fault_inject", "cat": "decision", "args": {"seq": 22, "parent": 16, "fault": "derate", "node": 1, "factor": 0.9}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 28.382, "name": "fault_repair", "cat": "decision", "args": {"seq": 23, "parent": 28, "instance": 7, "samples": 33}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 29.616, "name": "ingest_reject", "cat": "decision", "args": {"seq": 24, "parent": 0, "reason": "rejected_stale", "instance": 7, "tick": 12, "watts": null}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 30.850, "name": "epoch_commit", "cat": "decision", "args": {"seq": 25, "parent": 0, "epoch": 3, "frontier": 36, "action": 1, "swaps": 2, "fragmentation_ratio": null, "degraded": 1}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 32.084, "name": "epoch_shed", "cat": "decision", "args": {"seq": 26, "parent": 0, "epoch": 4, "queue_depth": 2}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 33.318, "name": "checkpoint_write", "cat": "decision", "args": {"seq": 27, "parent": 0, "epoch": 3, "bytes": 4096, "slot": 1}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 34.552, "name": "unknown", "cat": "decision", "args": {"seq": 28, "parent": 16}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 35.786, "name": "checkpoint_restore", "cat": "decision", "args": {"seq": 29, "parent": 0, "epoch": 3, "frontier": 36}},
{"ph": "i", "s": "t", "pid": 0, "tid": 0, "ts": 37.020, "name": "none", "cat": "decision", "args": {"seq": 30, "parent": 0}}
],
"displayTimeUnit": "ms",
"otherData": {"label": "say \"hi\" \\ then\nnext", "timestamp_utc": "2026-01-01T00:00:00Z"}
}
)golden");
    EXPECT_EQ(explainText(events, instance), R"golden(decision history for instance 7
  10 matching event(s) + 2 global monitor-week record(s) out of 30 in the journal
  #000007 [swap_accept] accepted swap: instance 7 <-> instance 9 (rack 1 <-> rack 2), gain null (delta A null, delta B -0.125)
          within op 'op.remap' <- say "hi" \ then
next <- pipeline
  #000008 [swap_reject] rejected pairings: instance 7 at rack 1 — 3 partner(s) showed no improvement at the donor rack (early-reject kernel gate); nearest miss: instance 8, score 1.5 -> 1.25
          within op 'op.remap' <- say "hi" \ then
next <- pipeline
  #000010 [swap_reject] rejected pairings: instance 11 at rack 2 — 4 partner(s) showed no net improvement after the full swap; nearest miss: instance 7, score 2 -> 1.75
          within op 'op.remap' <- say "hi" \ then
next <- pipeline
  #000011 [swap_reject] rejected pairings: instance 7 at rack 1 — 10 partner(s) pruned by the cluster candidate index before evaluation
          within op 'op.remap' <- say "hi" \ then
next <- pipeline
  #000012 [swap_reject] rejected pairings: instance 7 at rack 1 — 1 partner(s) rejected: unknown; nearest miss: instance 3, score null -> 0
          within (evicted #999)
  #000013 [monitor_week] monitor week 0: DEGRADED, fragmentation_ratio 1.3, valid_fraction 0.95, action remeasure, thresholds widened x1.5, 2 instance(s) excluded
          within pipeline
  #000014 [monitor_week] monitor week 1: normal, fragmentation_ratio 1.1, valid_fraction 1
          within pipeline
  #000015 [monitor_exclude] instance 7 excluded from the week's measurement (validity 0.42)
          within monitor_week#13 <- pipeline
  #000017 [fault_inject] fault injected: clock_skew instance=7 offset=-300 (plan 5)
          within scope#16 <- pipeline
  #000018 [fault_inject] fault injected: stuck_sensor instance=7 samples=12 windows=2
          within scope#16 <- pipeline
  #000020 [fault_inject] fault injected: trace_loss instance=7
          within scope#16 <- pipeline
  #000023 [fault_repair] trace repaired: instance 7, 33 sample(s) restored
          within unknown#28 <- scope#16 <- pipeline
)golden");
    EXPECT_EQ(explainText(events, node), R"golden(decision history for graph node signature 2748
  2 matching event(s) out of 30 in the journal
  #000004 [graph_eval] op 'op.remap' executed (sig 2748)
          within say "hi" \ then
next <- pipeline
  #000006 [graph_cache_hit] op 'op.remap' served from cache (sig 2748)
          within pipeline
)golden");
}

/** Split `text` into lines (without their newlines). */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/**
 * Deterministic mutation fuzzing of the journal reader and the JSON
 * validator, seeded from the pinned journal: byte flips, truncations,
 * duplicated and dropped lines, 200-deep nesting, edited numbers and
 * \u escapes.  Every input must parse, or be refused with a
 * line-numbered (reader) or byte-numbered (validator) error; nothing may
 * throw.  Accepted journals also go through explain.
 */
TEST(Journal, MutatedJournalsAreAcceptedOrRefusedCleanly)
{
    RecorderGuard guard;
    const std::vector<std::string> seed = splitLines(pinnedJournal());
    std::mt19937_64 rng(20260101);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const std::string deep =
        std::string(200, '[') + "1" + std::string(200, ']');
    const char *numberEdits[] = {"-", "0.5", "1e", "99999999999999999999"};
    const char *escapes[] = {"\\u00e9", "\\u0000", "\\uD83D", "\\u12",
                             "\\uZZZZ", "\\u"};

    std::size_t accepted = 0;
    std::size_t refused = 0;
    for (int iter = 0; iter < 1000; ++iter) {
        std::vector<std::string> lines = seed;
        for (std::size_t m = 1 + pick(3); m > 0; --m) {
            std::string &line = lines[pick(lines.size())];
            switch (pick(7)) {
              case 0: // Flip one bit of one byte.
                if (!line.empty())
                    line[pick(line.size())] ^=
                        static_cast<char>(1U << pick(8));
                break;
              case 1: // Truncate.
                line.resize(pick(line.size() + 1));
                break;
              case 2: // Duplicate a line.
                lines.insert(lines.begin() + pick(lines.size()),
                             std::string(line));
                break;
              case 3: // Drop a line.
                if (lines.size() > 1)
                    lines.erase(lines.begin() + pick(lines.size()));
                break;
              case 4: // Nest 200 deep, as a member value or bare.
                line.insert(pick(line.size() + 1),
                            pick(2) ? "\"deep\": " + deep + ", " : deep);
                break;
              case 5: { // A sign, fraction, exponent or overflow at a digit.
                const std::size_t at = line.find_first_of(
                    "0123456789", pick(line.size() + 1));
                if (at != std::string::npos)
                    line.insert(at, numberEdits[pick(4)]);
                break;
              }
              default: // A \u escape, well-formed or not.
                line.insert(pick(line.size() + 1), escapes[pick(6)]);
            }
        }
        std::string text;
        for (const std::string &line : lines) {
            text += line + "\n";
            std::string error;
            bool valid = true;
            EXPECT_NO_THROW(valid = obs::validateJson(line, &error))
                << line;
            if (!valid) {
                EXPECT_EQ(error.rfind("at byte ", 0), 0u) << error;
            }
        }

        std::istringstream in(text);
        std::vector<obs::JournalEvent> events;
        std::string error;
        bool ok = false;
        EXPECT_NO_THROW(ok = obs::readEventJournal(in, events, &error))
            << text;
        if (!ok) {
            ++refused;
            EXPECT_EQ(error.rfind("malformed journal line ", 0), 0u)
                << error;
            continue;
        }
        ++accepted;
        obs::ExplainQuery query;
        query.instance = 7;
        std::ostringstream os;
        EXPECT_NO_THROW(obs::explainRecord(os, events, query));
    }
    // The mutations must exercise both outcomes.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(refused, 0u);
}

TEST(ValidateJson, AcceptsStrictDocuments)
{
    for (const char *good : {
             R"({})",
             R"([])",
             R"({"a": [1, -2.5e-3, "x\né"], "b": null})",
             R"(["nested", {"true": true, "false": false}])",
             R"(0.125)",
         }) {
        std::string error;
        EXPECT_TRUE(obs::validateJson(good, &error))
            << good << ": " << error;
    }
}

TEST(ValidateJson, RejectsMalformedDocuments)
{
    for (const char *bad : {
             "",
             "{",
             R"({"a":})",
             R"({"a": 1} trailing)",
             R"({"a": 01})",
             R"({"a": NaN})",
             R"({"a": "unterminated)",
             R"({"a": "bad\escape"})",
             R"([1, 2,])",
         }) {
        std::string error;
        EXPECT_FALSE(obs::validateJson(bad, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(Explain, ReportsWhenNothingMatches)
{
    std::vector<obs::JournalEvent> events;
    obs::JournalEvent week;
    week.seq = 1;
    week.kind = "monitor_week";
    week.args["week"] = "0";
    week.args["degraded"] = "0";
    events.push_back(week);

    obs::ExplainQuery query;
    query.instance = 123;
    std::ostringstream os;
    // Monitor weeks alone are global context, not a match.
    EXPECT_FALSE(obs::explainRecord(os, events, query));
    EXPECT_NE(os.str().find("0 matching event(s)"), std::string::npos);
}

/**
 * A swap_reject's `nearest` names a partner only when the reason scores
 * partners.  Pruned and validity-gate rejects note every partner with
 * margin 0, so their `nearest` is just the first partner noted: it must
 * not pull the reject into that partner's history, where the printed
 * line would never mention the partner.
 */
TEST(Explain, NearestMatchesOnlyForScoredRejectReasons)
{
    for (const char *reason :
         {"early_reject", "no_improvement", "pruned", "validity_gate"}) {
        obs::JournalEvent reject;
        reject.seq = 1;
        reject.kind = "swap_reject";
        reject.args = {{"reason", reason}, {"inst_a", "5"},
                       {"partners", "3"},  {"rack_a", "1"},
                       {"nearest", "6"},   {"score_before", "1"},
                       {"score_after", "0.5"}};
        const std::vector<obs::JournalEvent> events{reject};
        const bool scored = std::string(reason) == "early_reject" ||
                            std::string(reason) == "no_improvement";

        obs::ExplainQuery partner;
        partner.instance = 6;
        std::ostringstream os;
        EXPECT_EQ(obs::explainRecord(os, events, partner), scored) << reason;
        EXPECT_EQ(os.str().find("nearest miss: instance 6") !=
                      std::string::npos,
                  scored)
            << reason << "\n"
            << os.str();

        obs::ExplainQuery candidate;
        candidate.instance = 5;
        std::ostringstream own;
        EXPECT_TRUE(obs::explainRecord(own, events, candidate)) << reason;
    }
}

/** A faulted dc1 report pipeline whose remap run accepts swaps. */
pipeline::PipelineSpec
faultedDc1Spec()
{
    // Scale 0.25 is the smallest dc1 preset where the pinned remap run
    // still accepts swaps (0.1 converges with none to make).
    workload::PresetOptions options;
    options.scale = 0.25;
    options.intervalMinutes = 30;
    options.weeks = 3;
    options.seed = 2018;
    pipeline::PipelineSpec spec;
    spec.dc = workload::buildDc1Spec(options);
    spec.faulted = true;
    spec.faultSeed = 7;
    spec.faultProfile = "harsh";
    return spec;
}

/**
 * The acceptance golden: a pinned faulted dc1 pipeline, single-threaded
 * and under fake time, must journal byte-identically across runs, and
 * `explain` on its first accepted swap must reconstruct a history with
 * at least one reject reason and one degraded monitor week.
 */
TEST(Explain, GoldenDecisionHistoryIsReproducible)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();

    const auto run = [&rec]() -> std::string {
        ScopedThreads threads(1);
        obs::setFakeTime("2026-01-01T00:00:00Z");
        obs::SpanTracer::instance().reset();
        rec.reset();
        rec.setEnabled(true);

        auto p = pipeline::buildPipeline(faultedDc1Spec());
        pipeline::runPipeline(p);

        rec.setEnabled(false);
        std::ostringstream journal;
        obs::writeEventJournal(journal, rec.collect(true), "golden");
        rec.reset();
        return journal.str();
    };

    const std::string first = run();
    const std::string second = run();
    EXPECT_EQ(first, second)
        << "pinned single-threaded runs must journal byte-identically";

    std::istringstream in(first);
    std::vector<obs::JournalEvent> events;
    std::string error;
    ASSERT_TRUE(obs::readEventJournal(in, events, &error)) << error;
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(rec.dropped(), 0u);

    // Explain the first accepted swap's instance.
    std::uint64_t instance = 0;
    bool found_accept = false;
    for (const auto &e : events)
        if (e.kind == "swap_accept") {
            instance = std::stoull(e.args.at("inst_a"));
            found_accept = true;
            break;
        }
    ASSERT_TRUE(found_accept) << "the pinned run must accept a swap";

    obs::ExplainQuery query;
    query.instance = instance;
    std::ostringstream history1;
    EXPECT_TRUE(obs::explainRecord(history1, events, query));
    std::ostringstream history2;
    EXPECT_TRUE(obs::explainRecord(history2, events, query));
    EXPECT_EQ(history1.str(), history2.str());

    const std::string text = history1.str();
    EXPECT_NE(text.find("accepted swap"), std::string::npos);
    EXPECT_NE(text.find("[swap_reject]"), std::string::npos);
    EXPECT_NE(text.find("[monitor_week]"), std::string::npos);
    EXPECT_NE(text.find("DEGRADED"), std::string::npos);
    // Causality survives the journal round trip: at least one decision
    // renders with its enclosing scope chain.
    EXPECT_NE(text.find("within "), std::string::npos);
}

/**
 * Recording never changes results: the same multi-threaded faulted
 * pipeline, run once with the recorder idle and once enabled, must
 * agree on every decision and measurement it reports.
 */
TEST(Recorder, RecordingNeverChangesResults)
{
    RecorderGuard guard;
    ScopedThreads threads(4);
    auto &rec = obs::EventRecorder::instance();
    const auto run = [&rec](bool recording) {
        rec.reset();
        rec.setEnabled(recording);
        auto p = pipeline::buildPipeline(faultedDc1Spec());
        auto r = pipeline::runPipeline(p);
        rec.setEnabled(false);
        return r;
    };

    const auto idle = run(false);
    EXPECT_EQ(rec.recorded(), 0u);
    const auto recorded = run(true);
    EXPECT_GT(rec.recorded(), 0u) << "the enabled run must record events";

    EXPECT_EQ(core::fingerprintAssignment(recorded.optimized),
              core::fingerprintAssignment(idle.optimized));
    ASSERT_FALSE(idle.swaps.empty());
    ASSERT_EQ(recorded.swaps.size(), idle.swaps.size());
    for (std::size_t i = 0; i < idle.swaps.size(); ++i) {
        const auto &a = idle.swaps[i];
        const auto &b = recorded.swaps[i];
        EXPECT_EQ(b.instanceA, a.instanceA) << "swap " << i;
        EXPECT_EQ(b.instanceB, a.instanceB) << "swap " << i;
        EXPECT_EQ(b.rackA, a.rackA) << "swap " << i;
        EXPECT_EQ(b.rackB, a.rackB) << "swap " << i;
        EXPECT_EQ(b.scoreAtAAfter, a.scoreAtAAfter) << "swap " << i;
        EXPECT_EQ(b.scoreAtBAfter, a.scoreAtBAfter) << "swap " << i;
    }
    ASSERT_EQ(recorded.comparison.levels.size(),
              idle.comparison.levels.size());
    for (std::size_t l = 0; l < idle.comparison.levels.size(); ++l) {
        const auto &a = idle.comparison.levels[l];
        const auto &b = recorded.comparison.levels[l];
        EXPECT_EQ(b.baselineSumPeaks, a.baselineSumPeaks) << "level " << l;
        EXPECT_EQ(b.optimizedSumPeaks, a.optimizedSumPeaks)
            << "level " << l;
    }
    ASSERT_EQ(recorded.weekly.size(), idle.weekly.size());
    for (std::size_t w = 0; w < idle.weekly.size(); ++w) {
        EXPECT_EQ(recorded.weekly[w].fragmentationRatio,
                  idle.weekly[w].fragmentationRatio)
            << "week " << w;
        EXPECT_EQ(recorded.weekly[w].action, idle.weekly[w].action)
            << "week " << w;
    }
    EXPECT_EQ(recorded.opsExecuted, idle.opsExecuted);
}

/** Node-signature mode walks the graph events for one op signature. */
TEST(Explain, NodeQueryFindsGraphEvents)
{
    RecorderGuard guard;
    obs::setFakeTime("2026-01-01T00:00:00Z");
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);

    workload::PresetOptions options;
    options.scale = 0.1;
    options.intervalMinutes = 30;
    options.weeks = 2;
    options.seed = 2018;
    pipeline::PipelineSpec spec;
    spec.dc = workload::buildDc1Spec(options);
    auto p = pipeline::buildPipeline(spec);
    pipeline::runPipeline(p);
    pipeline::runPipeline(p); // Warm re-run: cache hits for the same sigs.
    rec.setEnabled(false);

    std::ostringstream journal;
    obs::writeEventJournal(journal, rec.collect(true), "node");
    rec.reset();
    std::istringstream in(journal.str());
    std::vector<obs::JournalEvent> events;
    ASSERT_TRUE(obs::readEventJournal(in, events));

    std::uint64_t sig = 0;
    for (const auto &e : events)
        if (e.kind == "graph_eval") {
            sig = std::stoull(e.args.at("sig"));
            break;
        }
    ASSERT_NE(sig, 0u);

    obs::ExplainQuery query;
    query.node = sig;
    std::ostringstream os;
    EXPECT_TRUE(obs::explainRecord(os, events, query));
    EXPECT_NE(os.str().find("executed (sig"), std::string::npos);
}

} // namespace

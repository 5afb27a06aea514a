/**
 * @file
 * Tests for the flight recorder (src/obs/events.*, src/obs/trace_export.*):
 * ring-buffer wrap and drop accounting, causal-scope propagation across
 * the thread pool, fake-time determinism, the JSONL journal round trip,
 * the Chrome-trace export, the strict JSON validator, and the `sosim
 * explain` golden decision history on a pinned faulted pipeline.
 *
 * The EventRecorder class itself is compiled in both obs modes; only
 * the SOSIM_EVENT* macros and the library's instrumentation sites need
 * the SOSIM_OBS=ON guard.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/ops.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/trace_export.h"
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
        rec.setCapacity(obs::EventRecorder::kDefaultCapacity);
        rec.reset();
        obs::setFakeTime("");
    }
};

TEST(Recorder, DisabledStoresNothing)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();
    rec.record({.kind = obs::EventKind::FaultRepair, .a = 1});
    EXPECT_EQ(rec.recordScope({.kind = obs::EventKind::Scope}), 0u);
    EXPECT_EQ(rec.recorded(), 0u);
    EXPECT_TRUE(rec.collect().empty());
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

    const auto events = rec.collect();
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
    rec.setCapacity(4);
    rec.setEnabled(true);
    // Single-threaded: all ten land in one shard's 4-slot ring.
    for (std::uint64_t i = 0; i < 10; ++i)
        rec.record({.kind = obs::EventKind::FaultInject, .a = i});
    rec.setEnabled(false);

    EXPECT_EQ(rec.recorded(), 10u);
    EXPECT_EQ(rec.dropped(), 6u);
    const auto events = rec.collect();
    ASSERT_EQ(events.size(), 4u);
    // The survivors are the newest four, still in sequence order.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].seq, 7u + i);
        EXPECT_EQ(events[i].a, 6u + i);
    }
}

TEST(Recorder, CollectWithClearEmptiesRingsButKeepsTotals)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    rec.record({.kind = obs::EventKind::GraphDirty, .a = 1});
    rec.setEnabled(false);
    EXPECT_EQ(rec.collect(true).size(), 1u);
    EXPECT_TRUE(rec.collect().empty());
    EXPECT_EQ(rec.recorded(), 1u);
}

TEST(Recorder, MacroDoesNotEvaluateArgumentsWhileIdle)
{
    RecorderGuard guard;
    int calls = 0;
    const auto touch = [&calls]() -> std::uint64_t { return ++calls; };
    (void)touch; // Unreferenced entirely when obs is compiled out.
    // Disabled (or compiled out): the payload expression must not run.
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
    const auto events = rec.collect();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].steadyNanos, events[0].seq * 1000);
    EXPECT_EQ(events[1].steadyNanos, events[1].seq * 1000);
}

TEST(Recorder, ResetRewindsTheSequenceCounter)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    rec.record({.kind = obs::EventKind::GraphDirty});
    rec.record({.kind = obs::EventKind::GraphDirty});
    rec.reset();
    rec.record({.kind = obs::EventKind::GraphDirty});
    rec.setEnabled(false);
    const auto events = rec.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].seq, 1u);
}

#if SOSIM_OBS_ENABLED

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
    const auto events = rec.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, obs::EventKind::FaultRepair);
    EXPECT_EQ(events[0].a, 1u);
}

TEST(Scopes, EventsChainToEnclosingScopeAndRestore)
{
    RecorderGuard guard;
    auto &rec = obs::EventRecorder::instance();
    rec.setEnabled(true);
    EXPECT_EQ(obs::currentEventScope(), 0u);
    {
        SOSIM_EVENT_SCOPE(.kind = obs::EventKind::Scope,
                          .label = "outer");
        const std::uint64_t outer = obs::currentEventScope();
        EXPECT_NE(outer, 0u);
        {
            SOSIM_EVENT_SCOPE(.kind = obs::EventKind::Scope,
                              .label = "inner");
            EXPECT_NE(obs::currentEventScope(), outer);
            SOSIM_EVENT(.kind = obs::EventKind::SwapReject, .a = 5);
        }
        EXPECT_EQ(obs::currentEventScope(), outer);
    }
    EXPECT_EQ(obs::currentEventScope(), 0u);
    rec.setEnabled(false);

    const auto events = rec.collect();
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
        scope_seq = obs::currentEventScope();
        util::parallelFor(64, [](std::size_t i) {
            SOSIM_EVENT(.kind = obs::EventKind::FaultRepair, .a = i);
        });
    }
    rec.setEnabled(false);

    ASSERT_NE(scope_seq, 0u);
    const auto events = rec.collect();
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

    const auto events = rec.collect();
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

#endif // SOSIM_OBS_ENABLED

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

#if SOSIM_OBS_ENABLED

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
        rec.setCapacity(1U << 16U);
        rec.setEnabled(true);

        // Scale 0.25 is the smallest dc1 preset where the pinned remap
        // run still accepts swaps (0.1 converges with none to make).
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
        auto p = pipeline::buildPipeline(spec);
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

/** Node-signature mode walks the graph events for one op signature. */
TEST(Explain, NodeQueryFindsGraphEvents)
{
    RecorderGuard guard;
    obs::setFakeTime("2026-01-01T00:00:00Z");
    auto &rec = obs::EventRecorder::instance();
    rec.setCapacity(1U << 16U);
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

#endif // SOSIM_OBS_ENABLED

} // namespace

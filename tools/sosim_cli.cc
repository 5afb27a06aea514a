/**
 * @file
 * sosim — command-line driver for the SmoothOperator library.
 *
 * Subcommands:
 *   generate  Synthesize a datacenter's training/test traces to CSV.
 *   place     Derive a workload-aware placement from a trace CSV.
 *   evaluate  Score a placement (optionally against a baseline).
 *   report    Run the full pipeline on a preset datacenter.
 *   serve     Stream a preset datacenter through the serving loop
 *             (epoch snapshots, checkpoint/restore).
 *
 * Trace CSVs use the library interchange format (see trace/io.h); the
 * column names encode the service as "<service>@<index>", which `place`
 * uses to group instances by service.
 *
 * Observability: every command accepts --trace-tree (print the span
 * tree after the run) and --metrics-out FILE (dump the metrics registry
 * and span tree; --metrics-format json|prom selects the encoding).
 *
 * Examples:
 *   sosim generate --dc 3 --scale 0.25 --out /tmp/dc3.csv
 *   sosim place --traces /tmp/dc3.csv --out /tmp/placement.csv
 *   sosim evaluate --traces /tmp/dc3.csv --assignment /tmp/placement.csv
 *   sosim report --dc 2 --trace-tree --metrics-out metrics.json
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "baseline/oblivious.h"
#include "core/fingerprints.h"
#include "core/headroom.h"
#include "core/monitor.h"
#include "core/placement.h"
#include "core/remap.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "graph/ops.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/trace_export.h"
#include "power/assignment_io.h"
#include "serve/service.h"
#include "trace/io.h"
#include "trace/repair.h"
#include "util/error.h"
#include "util/parse.h"
#include "util/table.h"
#include "workload/dc_presets.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

/** Minimal --flag value argument parser (a --flag followed by another
 *  --flag, or by nothing, is a boolean flag — e.g. --trace-tree). */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            SOSIM_REQUIRE(key.rfind("--", 0) == 0,
                          "expected --flag, got '" + key + "'");
            const int pos = i;
            if (i + 1 >= argc ||
                std::string(argv[i + 1]).rfind("--", 0) == 0) {
                values_[key.substr(2)] = "";
            } else {
                values_[key.substr(2)] = argv[++i];
            }
            positions_.emplace(key.substr(2), pos);
        }
    }

    /** Reject every flag not in `allowed` (the common observability
     *  flags are always allowed); the error names the offending argv
     *  position so a long command line is easy to fix. */
    void
    rejectUnknown(const std::string &command,
                  std::initializer_list<const char *> allowed) const
    {
        static constexpr const char *kCommon[] = {
            "trace-tree", "metrics-out", "metrics-format",
            "flight-record", "chrome-trace"};
        for (const auto &[key, pos] : positions_) {
            bool known = false;
            for (const char *f : kCommon)
                known = known || key == f;
            for (const char *f : allowed)
                known = known || key == f;
            SOSIM_REQUIRE(known, "unknown flag --" + key +
                                     " (argument " +
                                     std::to_string(pos) + ") for '" +
                                     command + "'");
        }
    }

    bool has(const std::string &key) const
    {
        return values_.find(key) != values_.end();
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        const auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    std::string
    require(const std::string &key) const
    {
        const auto it = values_.find(key);
        SOSIM_REQUIRE(it != values_.end(), "missing required --" + key);
        return it->second;
    }

    /** --key parsed whole as a T (see util::parseNumber), or
     *  `fallback` when the flag is absent. */
    template <typename T>
    T
    getNumber(const std::string &key, T fallback) const
    {
        const auto it = values_.find(key);
        return it == values_.end()
                   ? fallback
                   : util::parseNumber<T>(it->second, "--" + key);
    }

  private:
    std::map<std::string, std::string> values_;
    std::map<std::string, int> positions_;
};

power::TopologySpec
topologyFromArgs(const Args &args)
{
    power::TopologySpec spec;
    spec.suites = args.getNumber("suites", spec.suites);
    spec.msbsPerSuite = args.getNumber("msbs", spec.msbsPerSuite);
    spec.sbsPerMsb = args.getNumber("sbs", spec.sbsPerMsb);
    spec.rppsPerSb = args.getNumber("rpps", spec.rppsPerSb);
    spec.racksPerRpp = args.getNumber("racks", spec.racksPerRpp);
    return spec;
}

workload::DatacenterSpec
presetFromArgs(const Args &args)
{
    workload::PresetOptions options;
    options.scale = args.getNumber("scale", 1.0);
    options.intervalMinutes = args.getNumber("interval", 5);
    options.weeks = args.getNumber("weeks", 3);
    options.seed = args.getNumber<std::uint64_t>("seed", 2018);
    const int dc = args.getNumber("dc", 3);
    switch (dc) {
      case 1:
        return workload::buildDc1Spec(options);
      case 2:
        return workload::buildDc2Spec(options);
      case 3:
        return workload::buildDc3Spec(options);
      default:
        SOSIM_REQUIRE(false, "--dc must be 1, 2 or 3");
    }
}

/** Recover service ids from "<service>@<index>" column names. */
std::vector<std::size_t>
servicesFromNames(const std::vector<std::string> &names)
{
    std::map<std::string, std::size_t> ids;
    std::vector<std::size_t> service_of;
    service_of.reserve(names.size());
    for (const auto &name : names) {
        const auto at = name.rfind('@');
        const std::string service =
            at == std::string::npos ? name : name.substr(0, at);
        const auto it = ids.emplace(service, ids.size()).first;
        service_of.push_back(it->second);
    }
    return service_of;
}

int
cmdGenerate(const Args &args)
{
    const auto spec = presetFromArgs(args);
    const std::string out = args.require("out");
    const std::string week = args.get("week", "training");
    SOSIM_REQUIRE(week == "training" || week == "test",
                  "--week must be training or test, got '" + week + "'");
    const bool test_week = week == "test";
    auto dc = workload::generate(spec);

    trace::TraceBundle bundle;
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        bundle.names.push_back(
            dc.serviceProfile(dc.serviceOf(i)).name + "@" +
            std::to_string(i));
    // The bundle adopts the rows: the test week moves out of the store.
    if (test_week)
        bundle.traces = std::move(std::move(dc).takeWeeks().back());
    else
        bundle.traces = dc.trainingTraces();
    // CSV names must be comma/newline free; catalog names are.
    trace::writeCsvFile(out, bundle);
    std::cout << "wrote " << bundle.traces.size() << " "
              << (test_week ? "test" : "training") << " traces ("
              << bundle.traces.front().size() << " samples @ "
              << spec.intervalMinutes << " min) to " << out << "\n";
    return 0;
}

int
cmdPlace(const Args &args)
{
    const auto bundle = trace::readCsvFile(args.require("traces"));
    const std::string out = args.require("out");
    const auto service_of = servicesFromNames(bundle.names);

    power::PowerTree tree(topologyFromArgs(args));
    core::PlacementConfig config;
    config.topServices = args.getNumber<std::size_t>("top-services", 10);
    config.clustersPerChild =
        args.getNumber<std::size_t>("clusters-per-child", 2);
    config.seed = args.getNumber<std::uint64_t>("seed", 42);
    core::PlacementEngine engine(tree, config);
    const auto assignment = engine.place(bundle.traces, service_of);
    power::writeAssignmentCsvFile(out, tree, assignment);
    std::cout << "placed " << assignment.size() << " instances onto "
              << tree.racks().size() << " racks; wrote " << out << "\n";
    return 0;
}

int
cmdEvaluate(const Args &args)
{
    const auto bundle = trace::readCsvFile(args.require("traces"));
    power::PowerTree tree(topologyFromArgs(args));
    const auto assignment = power::readAssignmentCsvFile(
        args.require("assignment"), tree);
    SOSIM_REQUIRE(assignment.size() == bundle.traces.size(),
                  "evaluate: assignment and traces disagree on the "
                  "instance count");

    const std::string baseline_path = args.get("baseline", "");
    power::Assignment baseline;
    if (baseline_path.empty()) {
        baseline = baseline::obliviousPlacement(
            tree, servicesFromNames(bundle.names));
        std::cout << "(no --baseline given: comparing against the "
                     "oblivious service-block placement)\n";
    } else {
        baseline = power::readAssignmentCsvFile(baseline_path, tree);
    }

    const auto report = core::comparePlacements(tree, bundle.traces,
                                                baseline, assignment);
    util::Table table({"level", "baseline sum-of-peaks",
                       "assignment sum-of-peaks", "reduction"});
    for (const auto &lc : report.levels) {
        table.addRow({power::levelName(lc.level),
                      util::fmtFixed(lc.baselineSumPeaks, 2),
                      util::fmtFixed(lc.optimizedSumPeaks, 2),
                      util::fmtPercent(lc.peakReductionFraction)});
    }
    table.print(std::cout);
    std::cout << "extra servers hostable at RPP: "
              << util::fmtPercent(report.extraServerFraction()) << "\n";
    return 0;
}

/** Print one pipeline evaluation exactly as `report` always has:
 *  headroom table, swap count, optional fault summary, weekly monitor
 *  lines.  Shared by the base run and every --what-if re-run. */
void
printReportBody(const pipeline::PipelineResult &r, bool faulted)
{
    util::Table table({"level", "peak reduction"});
    for (const auto &lc : r.comparison.levels)
        table.addRow({power::levelName(lc.level),
                      util::fmtPercent(lc.peakReductionFraction)});
    table.print(std::cout);
    std::cout << "extra servers hostable at RPP: "
              << util::fmtPercent(r.comparison.extraServerFraction())
              << "\n";
    std::cout << "remap refinement: " << r.swaps.size()
              << " swaps accepted\n";

    if (faulted) {
        std::cout << "fault plan seed " << r.plan.seed() << " profile '"
                  << r.plan.profile().name << "' (fingerprint "
                  << r.plan.fingerprint() << "):\n"
                  << "  training: " << r.trainingFaults.samplesDropped
                  << " samples dropped, "
                  << r.trainingFaults.samplesStuck << " stuck, "
                  << r.trainingFaults.tracesSkewed << " traces skewed, "
                  << r.trainingFaults.tracesLost << " lost; "
                  << r.trainingRepair.samplesRepaired
                  << " samples repaired ("
                  << r.trainingRepair.tracesUnrepairable
                  << " unrepairable), mean validity "
                  << util::fmtFixed(r.trainingRepair.meanValidFraction(),
                                    4)
                  << "\n"
                  << "  test week: " << r.tripFaults.blackoutSamples
                  << " samples blacked out across "
                  << r.tripFaults.instancesBlackedOut
                  << " instances by breaker trips\n";
    }

    for (const auto &obs : r.weekly) {
        std::cout << "monitor week " << obs.week << ": ratio "
                  << util::fmtFixed(obs.fragmentationRatio, 4)
                  << ", action " << core::monitorActionName(obs.action);
        if (obs.degradedData)
            std::cout << " (degraded: validity "
                      << util::fmtFixed(obs.validFraction, 4) << ", "
                      << obs.repairedSamples << " repaired, "
                      << obs.excludedInstances << " excluded)";
        std::cout << "\n";
    }
}

int
cmdReport(const Args &args)
{
    // The report is the pipeline: build the op graph once, evaluate it
    // for the base run, then re-evaluate under each --what-if overlay —
    // the warm runs recompute only the cone the overlay can observe.
    pipeline::PipelineSpec spec;
    spec.dc = presetFromArgs(args);
    if (args.has("fault-plan")) {
        const auto fp_spec =
            fault::parseFaultPlanSpec(args.require("fault-plan"),
                                      "--fault-plan");
        spec.faulted = true;
        spec.faultSeed = fp_spec.seed;
        spec.faultProfile = fp_spec.profile;
    }
    spec.remap.maxSwaps = args.getNumber("max-swaps", 16);

    auto p = pipeline::buildPipeline(spec);
    // Parse the what-if before the base run so a malformed spec fails
    // fast instead of after the whole pipeline.
    const std::string what_if = args.get("what-if", "");
    const auto overlay = pipeline::parseWhatIf(p, what_if);
    const auto base = pipeline::runPipeline(p);

    std::cout << "SmoothOperator report for " << spec.dc.name << " ("
              << p.instanceCount << " instances)\n\n";
    printReportBody(base, spec.faulted);

    if (args.has("what-if")) {
        const auto wi = pipeline::runPipeline(p, overlay);
        const bool wi_faulted =
            spec.faulted ||
            what_if.find("fault-plan") != std::string::npos;
        std::cout << "\nwhat-if (" << what_if << "):\n";
        printReportBody(wi, wi_faulted);
        std::cout << "what-if pipeline: " << wi.opsExecuted
                  << " ops executed, " << wi.cacheHits
                  << " cache hits (base run executed "
                  << base.opsExecuted << ")\n";
    }
    return 0;
}

int
cmdServe(const Args &args)
{
    // The datacenter as a long-running service: generate the preset
    // workload, then stream it into serve::Service one tick at a time
    // instead of handing the whole week to the batch pipeline.
    const auto spec = presetFromArgs(args);
    const auto dc = workload::generate(spec);
    power::PowerTree tree(spec.topology);
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < service_of.size(); ++i)
        service_of[i] = dc.serviceOf(i);
    auto traces = dc.trainingTraces();

    if (args.has("fault-plan")) {
        const auto fp_spec =
            fault::parseFaultPlanSpec(args.require("fault-plan"),
                                      "--fault-plan");
        const auto plan = fault::FaultPlan::build(
            fp_spec.seed, fault::faultProfile(fp_spec.profile),
            {traces.size(), traces.front().size()});
        traces = fault::injectedCopy(std::move(traces), plan).traces;
    }

    serve::ServeConfig config;
    config.window = args.getNumber<std::size_t>("window", 48);
    config.epochTicks = args.getNumber<std::size_t>("epoch-ticks", 24);
    config.remap.maxSwaps = args.getNumber("max-swaps", 16);
    config.checkpointDir = args.get("checkpoint-dir", "");
    if (!config.checkpointDir.empty())
        std::filesystem::create_directories(config.checkpointDir);

    const auto available = traces.front().size();
    const std::uint64_t ticks = std::min<std::uint64_t>(
        args.getNumber<std::uint64_t>("ticks", 96), available);
    SOSIM_REQUIRE(ticks > 0, "serve: no ticks to stream");

    serve::Service svc(tree, service_of,
                       baseline::obliviousPlacement(tree, service_of),
                       spec.intervalMinutes, config);

    std::uint64_t resume = 0;
    if (args.has("restore")) {
        SOSIM_REQUIRE(!config.checkpointDir.empty(),
                      "serve: --restore needs --checkpoint-dir");
        SOSIM_REQUIRE(svc.restoreLatest(),
                      "serve: no usable checkpoint in " +
                          config.checkpointDir);
        resume = svc.ring().frontier() + 1;
        std::cout << "restored epoch " << svc.committedEpoch()
                  << ", resuming feed at tick " << resume << "\n";
    }

    // --kill-at-tick simulates process death: the loop stops cold,
    // leaving whatever the last epoch checkpointed as the only durable
    // state.  A later --restore run replays the rest of the feed and
    // must land on the digest of an unbroken run.
    std::uint64_t stop = ticks;
    if (args.has("kill-at-tick"))
        stop = std::min(stop,
                        args.getNumber<std::uint64_t>("kill-at-tick", 0));

    for (std::uint64_t t = resume; t < stop; ++t) {
        svc.advanceTo(t);
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const double w = traces[i][t];
            if (std::isfinite(w)) // NaN = a silent sensor, not a sample
                svc.ingest({t, i, w});
        }
        svc.processReadyEpochs();
    }
    svc.processReadyEpochs();

    const auto &ring = svc.ring();
    std::cout << "served " << (stop - resume) << " ticks ("
              << ring.acceptedCount() << " samples accepted, "
              << ring.rejectedTotal() << " rejected, "
              << svc.shedCount() << " epochs shed)\n"
              << "committed epoch " << svc.committedEpoch()
              << ", assignment fingerprint "
              << core::fingerprintAssignment(svc.assignment()) << "\n";
    char digest[32];
    std::snprintf(digest, sizeof digest, "0x%016llx",
                  static_cast<unsigned long long>(svc.digest()));
    std::cout << "serve digest " << digest << "\n";

    const std::string digest_out = args.get("digest-out", "");
    if (!digest_out.empty()) {
        std::ofstream out(digest_out);
        SOSIM_REQUIRE(out.good(),
                      "cannot open --digest-out file " + digest_out);
        out << digest << "\n";
    }
    return 0;
}

int
cmdExplain(const Args &args)
{
    const std::string path = args.require("record");
    std::ifstream in(path);
    SOSIM_REQUIRE(in.good(), "cannot open --record file " + path);
    std::vector<obs::JournalEvent> events;
    std::string error;
    SOSIM_REQUIRE(obs::readEventJournal(in, events, &error),
                  "explain: " + error + " in " + path);
    SOSIM_REQUIRE(args.has("instance") != args.has("node"),
                  "explain: pass exactly one of --instance ID or "
                  "--node SIG");
    obs::ExplainQuery query;
    if (args.has("instance"))
        query.instance = args.getNumber<std::uint64_t>("instance", 0);
    else
        query.node = args.getNumber<std::uint64_t>("node", 0);
    return obs::explainRecord(std::cout, events, query) ? 0 : 1;
}

int
usage()
{
    std::cerr <<
        "usage: sosim <command> [--flag value ...]\n"
        "\n"
        "commands:\n"
        "  generate  --dc 1|2|3 --out FILE [--scale S] [--interval M]\n"
        "            [--weeks W] [--seed N] [--week training|test]\n"
        "  place     --traces FILE --out FILE [--top-services N]\n"
        "            [--clusters-per-child N] [--seed N] [topology]\n"
        "  evaluate  --traces FILE --assignment FILE [--baseline FILE]\n"
        "            [topology]\n"
        "  report    --dc 1|2|3 [--scale S] [--interval M]\n"
        "            [--max-swaps N] [--fault-plan SEED[:PROFILE]]\n"
        "            [--what-if KEY=VALUE,...]\n"
        "  serve     --dc 1|2|3 [--scale S] [--interval M] [--ticks N]\n"
        "            [--window N] [--epoch-ticks N] [--max-swaps N]\n"
        "            [--fault-plan SEED[:PROFILE]]\n"
        "            [--checkpoint-dir DIR] [--restore]\n"
        "            [--kill-at-tick N] [--digest-out FILE]\n"
        "  explain   --record FILE (--instance ID | --node SIG)\n"
        "\n"
        "serve: stream the preset's training traces through the\n"
        "serving loop one tick at a time.  Epoch snapshots drive the\n"
        "monitor + remapper; with --checkpoint-dir every processed\n"
        "epoch is committed to disk, --kill-at-tick simulates process\n"
        "death, and --restore resumes from the last checkpoint and\n"
        "replays to the same digest as an unbroken run.\n"
        "\n"
        "explain: reconstruct the causal decision history of one\n"
        "instance (swaps, rejects, faults, repairs, exclusions, plus\n"
        "the weekly monitor verdicts) or one graph-node signature from\n"
        "a journal written by --flight-record.\n"
        "\n"
        "what-if: report builds the pipeline as an op graph; --what-if\n"
        "re-evaluates it under an overlay, recomputing only the cone\n"
        "the change can observe.  Keys: max-swaps, placement-seed,\n"
        "top-services, clusters-per-child, repair-policy, fault-plan,\n"
        "monitor-level, remap-threshold, replace-threshold.\n"
        "\n"
        "fault injection: --fault-plan 7:harsh degrades the generated\n"
        "traces with a deterministic fault schedule (profiles: none,\n"
        "mild, harsh) before placement/evaluation; degraded samples are\n"
        "repaired by interpolation and counted in the metrics.\n"
        "\n"
        "topology flags: --suites N --msbs N --sbs N --rpps N --racks N\n"
        "(defaults 4/2/2/4/4 = 256 racks)\n"
        "\n"
        "observability flags (any command):\n"
        "  --trace-tree            print the span tree after the run\n"
        "  --metrics-out FILE      dump metrics + spans to FILE\n"
        "  --metrics-format F      json (default) or prom\n"
        "  --flight-record FILE    record decision events; write the\n"
        "                          JSONL journal to FILE\n"
        "  --chrome-trace FILE     record decision events; write a\n"
        "                          chrome://tracing timeline to FILE\n";
    return 2;
}

/** Handle --trace-tree / --metrics-out after a successful command. */
void
emitObservability(const Args &args, const std::string &command)
{
    if (args.has("trace-tree")) {
        std::cout << "\nspan tree:\n";
        obs::printSpanTree(std::cout);
    }
    const std::string metrics_out = args.get("metrics-out", "");
    if (!metrics_out.empty()) {
        std::ofstream out(metrics_out);
        SOSIM_REQUIRE(out.good(),
                      "cannot open --metrics-out file " + metrics_out);
        const std::string format = args.get("metrics-format", "json");
        if (format == "prom")
            obs::writeMetricsPrometheus(out);
        else
            obs::writeMetricsJson(out, "sosim-" + command);
        std::cout << "wrote metrics (" << format << ") to "
                  << metrics_out << "\n";
    }
    const std::string record_out = args.get("flight-record", "");
    const std::string chrome_out = args.get("chrome-trace", "");
    if (record_out.empty() && chrome_out.empty())
        return;
    // One drain feeds both sinks so the files agree event-for-event.
    const auto snapshot = obs::EventRecorder::instance().collect();
    if (!record_out.empty()) {
        std::ofstream out(record_out);
        SOSIM_REQUIRE(out.good(),
                      "cannot open --flight-record file " + record_out);
        obs::writeEventJournal(out, snapshot, "sosim-" + command);
        std::cout << "wrote flight record (" << snapshot.events.size()
                  << " events, " << snapshot.dropped << " dropped) to "
                  << record_out << "\n";
    }
    if (!chrome_out.empty()) {
        std::ofstream out(chrome_out);
        SOSIM_REQUIRE(out.good(),
                      "cannot open --chrome-trace file " + chrome_out);
        obs::writeChromeTrace(out, snapshot.events, "sosim-" + command);
        std::cout << "wrote chrome trace (" << snapshot.events.size()
                  << " events) to " << chrome_out << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    try {
        Args args(argc, argv, 2);
        // Checked before the command runs: a bad value must not cost a
        // whole run and then truncate the --metrics-out file.
        const std::string metrics_format = args.get("metrics-format", "json");
        SOSIM_REQUIRE(metrics_format == "json" || metrics_format == "prom",
                      "--metrics-format must be json or prom");
        // Recording must be live before the command runs; it is off by
        // default so instrumented sites stay one-load-and-branch cheap.
        if (args.has("flight-record") || args.has("chrome-trace"))
            obs::EventRecorder::instance().setEnabled(true);
        int rc = -1;
        if (command == "generate") {
            args.rejectUnknown(command, {"dc", "scale", "interval",
                                         "weeks", "seed", "out",
                                         "week"});
            rc = cmdGenerate(args);
        } else if (command == "place") {
            args.rejectUnknown(command,
                               {"traces", "out", "top-services",
                                "clusters-per-child", "seed", "suites",
                                "msbs", "sbs", "rpps", "racks"});
            rc = cmdPlace(args);
        } else if (command == "evaluate") {
            args.rejectUnknown(command,
                               {"traces", "assignment", "baseline",
                                "suites", "msbs", "sbs", "rpps",
                                "racks"});
            rc = cmdEvaluate(args);
        } else if (command == "report") {
            args.rejectUnknown(command,
                               {"dc", "scale", "interval", "weeks",
                                "seed", "max-swaps", "fault-plan",
                                "what-if"});
            rc = cmdReport(args);
        } else if (command == "serve") {
            args.rejectUnknown(command,
                               {"dc", "scale", "interval", "weeks",
                                "seed", "ticks", "window", "epoch-ticks",
                                "max-swaps", "fault-plan",
                                "checkpoint-dir", "restore",
                                "kill-at-tick", "digest-out"});
            rc = cmdServe(args);
        } else if (command == "explain") {
            args.rejectUnknown(command, {"record", "instance", "node"});
            rc = cmdExplain(args);
        }
        if (rc < 0) {
            std::cerr << "unknown command '" << command << "'\n";
            return usage();
        }
        if (rc == 0)
            emitObservability(args, command);
        return rc;
    } catch (const std::exception &e) {
        std::cerr << "sosim " << command << ": " << e.what() << "\n";
        return 1;
    }
}

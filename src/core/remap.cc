#include "remap.h"

#include <algorithm>
#include <array>
#include <limits>

#include "cluster/candidate_index.h"
#include "cluster/shape_index.h"
#include "core/asynchrony.h"
#include "obs/obs.h"
#include "trace/arena.h"
#include "trace/kernels.h"
#include "trace/shard.h"
#include "util/error.h"
#include "util/parallel.h"

namespace sosim::core {

namespace {

/**
 * Mutable per-rack state kept while searching for swaps.  The aggregate
 * lives as a running-sum row in the shared TraceArena and is maintained
 * incrementally across accepted swaps (one fused sub/add-and-max pass
 * per side) instead of being re-summed.  The per-member differential
 * scores and others-peaks are cached too: they only change when a swap
 * touches the rack, so rounds that merely mark a rack as tried reuse
 * them wholesale.
 *
 * Every rack — occupied or not — owns one aggregate row, allocated in
 * racks() order, so the rows of one ShardPlan shard form a contiguous,
 * cache-line-aligned arena block (trace/shard.h): tasks evaluating
 * different shards never touch the same aggregate cache line.
 */
struct RackState {
    std::vector<std::size_t> members;
    trace::TraceId aggRow = 0;
    double aggPeak = 0.0;
    double peakSum = 0.0; // Sum of member peaks.
    /**
     * Per-member caches, indexed like members:
     *   scoreBefore[m] — differential score of member m against the rest
     *                    of this rack (diffScore with itself leaving);
     *   othersPeak[m]  — peak(aggregate - member m), the numerator term
     *                    shared by the before/after scores at this rack.
     * Valid while cacheValid; invalidated by an accepted swap here.
     */
    std::vector<double> scoreBefore;
    std::vector<double> othersPeak;
    bool cacheValid = false;
};

double
rackAsynchrony(const RackState &rack)
{
    if (rack.members.empty())
        return 0.0;
    if (rack.aggPeak <= 0.0)
        return 0.0; // Zero-power convention (see core/asynchrony.h).
    return rack.peakSum / rack.aggPeak;
}

/** Best swap found while scanning one (candidate, shard) task. */
struct LocalBest {
    double gain = 0.0;
    std::size_t posB = 0;
    SwapRecord record;
};

/**
 * Per-task reject tallies for the flight recorder.  The pair scan
 * rejects tens of thousands of pairings per run, so journaling one
 * event per pair would let the recorder dominate the scan it observes;
 * instead each (candidate, shard) task tallies its rejects by reason
 * (index = RejectReason - 1) and remembers the nearest miss — the
 * rejected partner with the smallest score deficit — and the round
 * reduces the tallies to one event per candidate per reason.  Filled
 * only while the recorder is live.
 */
struct RejectTally {
    static constexpr std::size_t kReasons = 4;

    std::array<std::uint64_t, kReasons> counts{};
    std::array<std::size_t, kReasons> nearInst{kNoInstance, kNoInstance,
                                               kNoInstance, kNoInstance};
    std::array<double, kReasons> nearBefore{};
    std::array<double, kReasons> nearAfter{};
    std::array<double, kReasons> nearMargin{kNoMargin, kNoMargin,
                                            kNoMargin, kNoMargin};

    static constexpr std::size_t kNoInstance =
        static_cast<std::size_t>(-1);
    static constexpr double kNoMargin =
        -std::numeric_limits<double>::infinity();

    void
    note(obs::RejectReason reason, std::size_t inst_b, double before,
         double after) noexcept
    {
        const std::size_t r = static_cast<std::uint32_t>(reason) - 1;
        ++counts[r];
        const double margin = after - before;
        if (margin > nearMargin[r]) {
            nearMargin[r] = margin;
            nearInst[r] = inst_b;
            nearBefore[r] = before;
            nearAfter[r] = after;
        }
    }

    void
    merge(const RejectTally &other) noexcept
    {
        for (std::size_t r = 0; r < counts.size(); ++r) {
            counts[r] += other.counts[r];
            if (other.nearMargin[r] > nearMargin[r]) {
                nearMargin[r] = other.nearMargin[r];
                nearInst[r] = other.nearInst[r];
                nearBefore[r] = other.nearBefore[r];
                nearAfter[r] = other.nearAfter[r];
            }
        }
    }
};

/**
 * Per-(candidate, shard) accumulator of the parallel swap scan, padded
 * to its own cache line so concurrent tasks never false-share: each
 * task writes only its slot, and the serial reduction walks the slots
 * in (candidate, shard) order afterwards — which visits racks in the
 * same global order as the unsharded nested loop (shard ranges
 * concatenate in rack order, see trace/shard.h), so the first-max
 * tie-breaking is identical for any shard or thread count.
 */
struct alignas(64) ShardSlot {
    LocalBest best;
    /** Pairs that reached a kernel pass (passed validity + prune). */
    std::uint64_t evaluated = 0;
    /** Pairs skipped by the cluster candidate index before any pass. */
    std::uint64_t pruned = 0;
};

} // namespace

Remapper::Remapper(const power::PowerTree &tree, RemapConfig config)
    : tree_(tree), config_(config)
{
    SOSIM_REQUIRE(config.maxSwaps >= 0, "Remapper: maxSwaps must be >= 0");
    SOSIM_REQUIRE(config.candidatesPerRound >= 1,
                  "Remapper: candidatesPerRound must be >= 1");
    SOSIM_REQUIRE(config.minValidFraction >= 0.0 &&
                      config.minValidFraction <= 1.0,
                  "Remapper: minValidFraction must be in [0, 1]");
    SOSIM_REQUIRE(config.pruneKeepFraction > 0.0 &&
                      config.pruneKeepFraction <= 1.0,
                  "Remapper: pruneKeepFraction must be in (0, 1]");
}

std::vector<double>
Remapper::rackScores(const power::Assignment &assignment,
                     const std::vector<trace::TimeSeries> &itraces) const
{
    SOSIM_REQUIRE(assignment.size() == itraces.size(),
                  "Remapper::rackScores: size mismatch");
    std::vector<double> scores(tree_.nodeCount(), 0.0);
    const auto per_rack = tree_.instancesPerRack(assignment);
    for (const auto rack : tree_.racks()) {
        const auto &members = per_rack[rack];
        if (members.empty())
            continue;
        std::vector<const trace::TimeSeries *> traces;
        traces.reserve(members.size());
        for (const auto i : members)
            traces.push_back(&itraces[i]);
        scores[rack] = asynchronyScore(traces);
    }
    return scores;
}

std::vector<SwapRecord>
Remapper::refine(power::Assignment &assignment,
                 const std::vector<trace::TimeSeries> &itraces,
                 const std::vector<double> *validity,
                 const cluster::ShapeIndex *shapes) const
{
    SOSIM_SPAN("remap.refine");
    SOSIM_EVENT_SCOPE(.kind = obs::EventKind::Scope,
                      .label = "remap.refine");
    SOSIM_REQUIRE(assignment.size() == itraces.size(),
                  "Remapper::refine: size mismatch");
    SOSIM_REQUIRE(validity == nullptr ||
                      validity->size() == itraces.size(),
                  "Remapper::refine: validity vector size mismatch");
    if (itraces.empty())
        return {};

    // Degraded-data filter: instances whose telemetry is mostly
    // fabricated stay where they are (they still weigh on their rack's
    // aggregate — the power is real even if the trace shape is not).
    const auto swappable = [&](std::size_t instance) {
        return validity == nullptr ||
               (*validity)[instance] >= config_.minValidFraction;
    };
    std::size_t excluded = 0;
    if (validity != nullptr)
        for (const double v : *validity)
            if (v < config_.minValidFraction)
                ++excluded;
    SOSIM_COUNT_ADD("remap.instances_excluded", excluded);

    // Every trace, every rack running sum, and the per-candidate scratch
    // rows live in one SoA arena: the whole swap scan walks contiguous
    // 64-byte-aligned rows instead of chasing per-series allocations.
    // Row ids: [0, N) instance traces (TraceId == instance index), then
    // one aggregate row per rack — every rack, in racks() order, so each
    // shard of the plan below owns a contiguous row block — then the
    // candidate scratch rows.
    const auto rack_ids = tree_.racks();
    trace::TraceArena arena = trace::TraceArena::fromSeries(
        itraces, rack_ids.size() + config_.candidatesPerRound);
    // Warm the per-instance stats rows up front: the parallel candidate
    // evaluation below reads them from worker threads.  Each index fills
    // only its own lazy slot (distinct LazyStatsSlot objects), which is
    // the per-index-slot discipline the parallelFor contract requires.
    util::parallelFor(itraces.size(),
                      [&](std::size_t id) { arena.stats(id); });

    // Shard the racks into contiguous ranges aligned to their power
    // subtree at config.shardLevel (the DFS construction order of the
    // tree keeps any ancestor's racks contiguous in racks()).  The scan
    // below fans out (candidate, shard) tasks; the shard count shapes
    // only the fan-out, never the result (see trace/shard.h).
    std::vector<std::size_t> group_of(rack_ids.size());
    for (std::size_t r = 0; r < rack_ids.size(); ++r) {
        power::NodeId ancestor = rack_ids[r];
        while (tree_.node(ancestor).level != config_.shardLevel &&
               tree_.node(ancestor).parent != power::kNoNode)
            ancestor = tree_.node(ancestor).parent;
        group_of[r] = static_cast<std::size_t>(ancestor);
    }
    const std::size_t target_shards =
        config_.shards > 0 ? config_.shards : util::threadCount() * 2;
    const trace::ShardPlan plan =
        trace::ShardPlan::build(group_of, target_shards);
    const std::size_t shard_count = plan.shardCount();
    SOSIM_GAUGE_SET("remap.shards", shard_count);

    // Build per-rack state once; aggregates are maintained incrementally
    // after every accepted swap rather than rebuilt.  Rows are claimed
    // serially (allocation order is the layout contract above); the
    // fills fan out per rack, each writing only its own row and state.
    std::vector<RackState> racks(tree_.nodeCount());
    const auto per_rack = tree_.instancesPerRack(assignment);
    const trace::TraceId agg_base = arena.size();
    for (const auto rack : rack_ids) {
        racks[rack].members = per_rack[rack];
        racks[rack].aggRow = arena.addZeros();
    }
    util::parallelFor(rack_ids.size(), [&](std::size_t r) {
        auto &state = racks[rack_ids[r]];
        if (state.members.empty())
            return;
        double *agg = arena.mutableRow(state.aggRow);
        for (const auto i : state.members) {
            state.aggPeak = trace::accumulatePeakRow(agg, arena.view(i));
            state.peakSum += arena.stats(i).peak;
        }
    });
    // One ArenaShardView per shard over its aggregate-row block, handed
    // to evaluation tasks so a task only ever reads rows of its shard.
    std::vector<trace::ArenaShardView> shard_rows;
    shard_rows.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s)
        shard_rows.emplace_back(arena, agg_base + plan.range(s).begin,
                                plan.range(s).size());

    // The cluster candidate index (when pruning): embed every trace's
    // diurnal shape, cluster once, and let the scan skip partners from
    // clusters too synchronous with the candidate's before any kernel
    // pass runs.
    const bool prune =
        config_.prune == PruneMode::kCluster && itraces.size() >= 2;
    cluster::CandidatePairIndex prune_index;
    if (prune) {
        SOSIM_SPAN("remap.prune_index");
        // A caller-supplied ShapeIndex (built once per population and
        // shared with placement and the monitor) skips the re-embed; a
        // size mismatch means it describes some other population, so
        // fall back to embedding locally.
        std::vector<cluster::Point> local_points;
        const std::vector<cluster::Point> *points = nullptr;
        if (shapes != nullptr && shapes->size() == itraces.size()) {
            points = &shapes->points();
            SOSIM_COUNT("remap.prune_index_reused");
        } else {
            std::vector<const double *> trace_rows(itraces.size());
            for (trace::TraceId id = 0; id < itraces.size(); ++id)
                trace_rows[id] = arena.row(id);
            local_points = cluster::shapePoints(
                trace_rows, arena.samplesPerTrace(),
                cluster::kDefaultShapeBuckets);
            points = &local_points;
        }
        cluster::CandidateIndexConfig index_config;
        index_config.clusters = config_.pruneClusters;
        index_config.keepFraction = config_.pruneKeepFraction;
        index_config.seed = config_.pruneSeed;
        prune_index =
            cluster::CandidatePairIndex::build(*points, index_config);
        SOSIM_GAUGE_SET("remap.prune_clusters",
                        prune_index.clusterCount());
    }

    // Scratch rows for the per-candidate "aggregate minus leaver" diffs.
    std::vector<trace::TraceId> scratch(config_.candidatesPerRound);
    for (auto &row : scratch)
        row = arena.addZeros();

    // Differential score of `candidate` joining `rack` after `out`
    // leaves, served from the hoisted others-row/peak: the numerator
    // reuses others_peak, the denominator is one fused pass.  The pass
    // aborts once the prefix peak already proves `score <= threshold` —
    // the caller's accept test takes the identical branch either way
    // (see the early-reject kernel contract in trace/kernels.h).
    const auto diffScoreHoisted =
        [&](trace::TraceView candidate, double candidate_peak,
            trace::TraceView others_diff, double others_peak,
            std::size_t other_count, double threshold) {
            if (other_count == 0)
                return 2.0; // Joining an empty rack can never clash.
            const double scale =
                1.0 / static_cast<double>(other_count);
            const double numerator =
                candidate_peak + scale * others_peak;
            const double aggregate_peak =
                trace::peakOfScaledSumEarlyReject(
                    candidate, others_diff, scale, numerator, threshold);
            if (aggregate_peak <= 0.0)
                return 0.0; // Zero-power convention.
            return numerator / aggregate_peak;
        };

    // Fill a rack's per-member caches (scoreBefore / othersPeak).  Pure
    // recomputation of values the scan would otherwise re-derive, so
    // refresh order across racks cannot affect results.
    const auto refreshCache = [&](RackState &rack) {
        if (rack.cacheValid)
            return;
        const std::size_t count = rack.members.size();
        rack.scoreBefore.assign(count, 2.0);
        rack.othersPeak.assign(count, 0.0);
        const trace::TraceView agg = arena.view(rack.aggRow);
        const std::size_t others = count - 1;
        util::parallelFor(count, [&](std::size_t m) {
            const std::size_t i = rack.members[m];
            if (others == 0)
                return; // scoreBefore stays at the 2.0 convention.
            const trace::TraceView member = arena.view(i);
            const double others_peak = trace::peakOfDiff(agg, member);
            rack.othersPeak[m] = others_peak;
            const double scale = 1.0 / static_cast<double>(others);
            const double aggregate_peak =
                trace::peakOfAddScaledDiff(member, agg, member, scale);
            rack.scoreBefore[m] =
                aggregate_peak <= 0.0
                    ? 0.0
                    : (arena.stats(i).peak + scale * others_peak) /
                          aggregate_peak;
        });
        rack.cacheValid = true;
    };

    std::vector<SwapRecord> swaps;
    std::vector<power::NodeId> tried;
    std::size_t round = 0;
    while (static_cast<int>(swaps.size()) < config_.maxSwaps) {
        SOSIM_SPAN("remap.round");
        SOSIM_COUNT("remap.rounds");
        ++round;
        (void)round; // Only read by the scope event when obs is on.
        // 1. Most fragmented rack not yet exhausted this pass.
        power::NodeId worst_rack = power::kNoNode;
        double worst_score = std::numeric_limits<double>::max();
        for (const auto rack : rack_ids) {
            if (racks[rack].members.size() < 2)
                continue;
            if (std::find(tried.begin(), tried.end(), rack) != tried.end())
                continue;
            const double score = rackAsynchrony(racks[rack]);
            if (score < worst_score) {
                worst_score = score;
                worst_rack = rack;
            }
        }
        if (worst_rack == power::kNoNode)
            break; // Every rack tried without an accepted swap.

        auto &rack_a = racks[worst_rack];
        // The round's accept/reject events chain under this scope (and
        // under remap.refine above it) in the flight recorder.
        SOSIM_EVENT_SCOPE(.kind = obs::EventKind::Scope,
                          .label = "remap.round", .a = round,
                          .c = worst_rack);
        // Refresh member caches before the parallel scan; after the
        // first round only the (at most two) racks the last swap
        // touched recompute anything.  Fanned out per rack — each body
        // writes only its own rack's cache vectors, and the nested
        // parallelFor inside refreshCache runs inline in a worker.
        util::parallelFor(rack_ids.size(), [&](std::size_t r) {
            if (!racks[rack_ids[r]].members.empty())
                refreshCache(racks[rack_ids[r]]);
        });

        // 2. Members with the worst differential asynchrony scores.
        std::vector<std::pair<double, std::size_t>> scored(
            rack_a.members.size());
        for (std::size_t m = 0; m < rack_a.members.size(); ++m)
            scored[m] = {rack_a.scoreBefore[m], rack_a.members[m]};
        std::sort(scored.begin(), scored.end());
        if (validity != nullptr)
            scored.erase(std::remove_if(scored.begin(), scored.end(),
                                        [&](const auto &entry) {
                                            return !swappable(entry.second);
                                        }),
                         scored.end());
        const std::size_t candidates =
            std::min(config_.candidatesPerRound, scored.size());

        // Hoist the per-candidate "rack A minus leaver" row and its peak
        // out of the pair scan: one materializing pass per candidate
        // replaces a peakOfDiff + three-stream fused pass per *pair*.
        // Fanned out per candidate; each writes only its scratch row.
        const std::size_t others_a = rack_a.members.size() - 1;
        std::vector<double> cand_others_peak(candidates, 0.0);
        util::parallelFor(candidates, [&](std::size_t c) {
            cand_others_peak[c] = trace::diffPeakRow(
                arena.mutableRow(scratch[c]), arena.view(rack_a.aggRow),
                arena.view(scored[c].second));
        });

        // 3. Best improving swap across all other racks: one task per
        // (candidate, shard) evaluates that shard's racks against the
        // candidate, accumulating into its own cache-line-sized slot;
        // the serial reduction below then walks the slots in
        // (candidate, shard) order — rack order, since shard ranges
        // concatenate in order — so ties resolve identically to the
        // unsharded nested loop for any thread or shard count.
        const std::size_t tasks = candidates * shard_count;
        std::vector<ShardSlot> local(tasks);
        // Reject journaling is tallied per task and reduced to one
        // event per candidate per reason after the scan (see
        // RejectTally) — never emitted from inside the hot loop.
        const bool recording =
            SOSIM_OBS_ENABLED != 0 &&
            obs::EventRecorder::instance().enabled();
        std::vector<RejectTally> tally(recording ? tasks : 0);
        const auto scanTask = [&](std::size_t task) {
            const std::size_t c = task / shard_count;
            const std::size_t s = task % shard_count;
            const trace::ShardRange &shard = plan.range(s);
            const trace::ArenaShardView &shard_aggs = shard_rows[s];
            const std::size_t inst_a = scored[c].second;
            const double score_a_before = scored[c].first;
            const trace::TraceView inst_a_row = arena.view(inst_a);
            const double inst_a_peak = arena.stats(inst_a).peak;
            const trace::TraceView others_a_row = arena.view(scratch[c]);
            const std::size_t cluster_a =
                prune ? prune_index.clusterOf(inst_a) : 0;
            ShardSlot &slot = local[task];
            for (std::size_t r = shard.begin; r < shard.end; ++r) {
                const power::NodeId rack_b_id = rack_ids[r];
                if (rack_b_id == worst_rack)
                    continue;
                const auto &rack_b = racks[rack_b_id];
                if (rack_b.members.empty())
                    continue;
                const trace::TraceView agg_b =
                    shard_aggs.view(r - shard.begin);
                const std::size_t others_b = rack_b.members.size() - 1;
                const double scale_b =
                    others_b == 0 ? 0.0
                                  : 1.0 / static_cast<double>(others_b);
                for (std::size_t pos_b = 0;
                     pos_b < rack_b.members.size(); ++pos_b) {
                    const std::size_t inst_b = rack_b.members[pos_b];
                    if (!swappable(inst_b)) {
                        if (recording)
                            tally[task].note(
                                obs::RejectReason::ValidityGate, inst_b,
                                0.0, 0.0);
                        continue;
                    }
                    // Cluster prune: partners whose diurnal shape falls
                    // in a cluster too synchronous with the candidate's
                    // never reach a kernel pass.
                    if (prune &&
                        !prune_index.allowed(
                            cluster_a, prune_index.clusterOf(inst_b))) {
                        ++slot.pruned;
                        if (recording)
                            tally[task].note(obs::RejectReason::Pruned,
                                             inst_b, 0.0, 0.0);
                        continue;
                    }
                    ++slot.evaluated;
                    // Post-swap score of B at rack A first: it is the
                    // cheaper pass (two streams against the hoisted
                    // row), and a pair failing the improve-at-A rule
                    // skips the improve-at-B evaluation entirely.  Pure
                    // reordering of the paper's accept test — the
                    // accepted set is unchanged.
                    const double score_a_after = diffScoreHoisted(
                        arena.view(inst_b), arena.stats(inst_b).peak,
                        others_a_row, cand_others_peak[c], others_a,
                        score_a_before);
                    if (score_a_after <= score_a_before) {
                        if (recording)
                            tally[task].note(
                                obs::RejectReason::EarlyReject, inst_b,
                                score_a_before, score_a_after);
                        continue;
                    }
                    const double score_b_before =
                        rack_b.scoreBefore[pos_b];
                    double score_b_after;
                    if (others_b == 0) {
                        score_b_after = 2.0;
                    } else {
                        const double numerator =
                            inst_a_peak +
                            scale_b * rack_b.othersPeak[pos_b];
                        const double aggregate_peak =
                            trace::peakOfAddScaledDiffEarlyReject(
                                inst_a_row, agg_b, arena.view(inst_b),
                                scale_b, numerator, score_b_before);
                        score_b_after = aggregate_peak <= 0.0
                                            ? 0.0
                                            : numerator / aggregate_peak;
                    }
                    // Accept only improving-both-nodes swaps (paper).
                    if (score_b_after <= score_b_before) {
                        if (recording)
                            tally[task].note(
                                obs::RejectReason::NoImprovement, inst_b,
                                score_b_before, score_b_after);
                        continue;
                    }
                    const double gain =
                        (score_a_after - score_a_before) +
                        (score_b_after - score_b_before);
                    LocalBest &best = slot.best;
                    if (gain > best.gain) {
                        best.gain = gain;
                        best.posB = pos_b;
                        best.record.instanceA = inst_a;
                        best.record.instanceB = inst_b;
                        best.record.rackA = worst_rack;
                        best.record.rackB = rack_b_id;
                        best.record.scoreAtABefore = score_a_before;
                        best.record.scoreAtAAfter = score_a_after;
                        best.record.scoreAtBBefore = score_b_before;
                        best.record.scoreAtBAfter = score_b_after;
                    }
                }
            }
        };
        // One chunk per task: shard occupancy varies, so dynamic claims
        // load-balance uneven shards across the pool lanes.
        util::parallelFor(tasks, scanTask,
                          util::ParallelForOptions{2, tasks});

        if (recording) {
            // One journal event per candidate per reject reason: the
            // partner count plus the nearest miss carry the decision
            // story a per-pair log would bury in repetition.
            for (std::size_t c = 0; c < candidates; ++c) {
                RejectTally sum;
                for (std::size_t s = 0; s < shard_count; ++s)
                    sum.merge(tally[c * shard_count + s]);
                const std::size_t inst_a = scored[c].second;
                (void)inst_a; // Only read by the event when obs is on.
                for (std::uint32_t code = 1; code <= RejectTally::kReasons;
                     ++code) {
                    const std::size_t idx = code - 1;
                    if (sum.counts[idx] == 0)
                        continue;
                    SOSIM_EVENT(.kind = obs::EventKind::SwapReject,
                                .code = code, .a = inst_a,
                                .b = sum.counts[idx], .c = worst_rack,
                                .d = sum.nearInst[idx],
                                .x = sum.nearBefore[idx],
                                .y = sum.nearAfter[idx]);
                }
            }
        }

        SwapRecord best;
        double best_gain = 0.0;
        std::size_t best_b_pos = 0;
        std::uint64_t evaluated_pairs = 0;
        std::uint64_t pruned_pairs = 0;
        for (const auto &slot : local) {
            evaluated_pairs += slot.evaluated;
            pruned_pairs += slot.pruned;
            if (slot.best.gain > best_gain) {
                best_gain = slot.best.gain;
                best = slot.best.record;
                best_b_pos = slot.best.posB;
            }
        }
        SOSIM_COUNT_ADD("remap.pairs_evaluated", evaluated_pairs);
        SOSIM_COUNT_ADD("remap.pairs_pruned", pruned_pairs);
        (void)evaluated_pairs; // Only read by the counters when obs on.
        (void)pruned_pairs;

        if (best_gain > 0.0) {
            // Apply the swap and update both racks' state incrementally.
            SOSIM_COUNT("remap.swaps_accepted");
            // One fused sub/add-and-max pass per rack row, plus two
            // peak-sum adjustments.
            SOSIM_COUNT_ADD("remap.aggregate_updates", 2);
            auto &rack_b = racks[best.rackB];
            auto it_a = std::find(rack_a.members.begin(),
                                  rack_a.members.end(), best.instanceA);
            SOSIM_ASSERT(it_a != rack_a.members.end(),
                         "Remapper: lost swap candidate A");
            *it_a = best.instanceB;
            rack_b.members[best_b_pos] = best.instanceA;

            rack_a.aggPeak = trace::subAddPeakRow(
                arena.mutableRow(rack_a.aggRow), arena.view(best.instanceB),
                arena.view(best.instanceA));
            rack_a.peakSum += arena.stats(best.instanceB).peak -
                              arena.stats(best.instanceA).peak;
            rack_b.aggPeak = trace::subAddPeakRow(
                arena.mutableRow(rack_b.aggRow), arena.view(best.instanceA),
                arena.view(best.instanceB));
            rack_b.peakSum += arena.stats(best.instanceA).peak -
                              arena.stats(best.instanceB).peak;
            rack_a.cacheValid = false;
            rack_b.cacheValid = false;

            assignment[best.instanceA] = best.rackB;
            assignment[best.instanceB] = best.rackA;
            SOSIM_EVENT(.kind = obs::EventKind::SwapAccept,
                        .a = best.instanceA, .b = best.instanceB,
                        .c = best.rackA, .d = best.rackB,
                        .x = best_gain,
                        .y = best.scoreAtAAfter - best.scoreAtABefore,
                        .z = best.scoreAtBAfter - best.scoreAtBBefore);
            swaps.push_back(best);
            tried.clear();
        } else {
            // No improving swap out of this rack; look at the next one.
            tried.push_back(worst_rack);
        }
    }
    return swaps;
}

} // namespace sosim::core

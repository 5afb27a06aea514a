#include "remap.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "cluster/candidate_index.h"
#include "cluster/shape_index.h"
#include "core/asynchrony.h"
#include "obs/obs.h"
#include "trace/arena.h"
#include "trace/kernels.h"
#include "trace/repair.h"
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
 * racks() order.  Arena rows are padded to 64 bytes, so the per-rack
 * fill tasks never share a cache line.
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

/**
 * Per-index reject tallies for the flight recorder.  The pair scan
 * rejects tens of thousands of pairings per run, so journaling one
 * event per pair would let the recorder dominate the scan it observes;
 * instead each (candidate, rack) index tallies its rejects by reason
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
 * Outcome of scanning one (candidate, rack) index of the parallel swap
 * scan: the rack's best improving partner for the candidate and the
 * pair counts.  Each index writes only its own slot; the serial
 * reduction folds the slots in (candidate, rack) order with a strict
 * `>`, so the first-max tie-breaking of the nested loop holds at any
 * thread count.  The rest of the SwapRecord is recovered from the
 * index: candidate, rack and the cached before-scores.
 */
struct ScanSlot {
    double gain = 0.0;
    std::size_t posB = 0;
    double scoreAtAAfter = 0.0;
    double scoreAtBAfter = 0.0;
    /** Pairs that reached a kernel pass (passed validity + prune). */
    std::uint64_t evaluated = 0;
    /** Pairs skipped by the cluster candidate index before any pass. */
    std::uint64_t pruned = 0;
};

/**
 * Everything the search carries from one round to the next: what a
 * resume must restore to go on exactly where the search stopped.  The
 * instance rows are not part of it: the search reads them in place, from
 * the caller's population.
 */
struct SearchState {
    explicit SearchState(trace::TraceArena rack_rows)
        : rows(std::move(rack_rows))
    {
    }

    /**
     * One running-sum aggregate row per rack, in racks() order, then
     * the kCandidatesPerRound candidate scratch rows.
     */
    trace::TraceArena rows;
    std::vector<trace::TraceId> scratch;
    std::vector<RackState> racks;
    /** Peak of every instance row, scanned once per population. */
    std::vector<double> peaks;
    bool prune = false;
    cluster::CandidatePairIndex pruneIndex;
    /** Racks tried since the last accepted swap. */
    std::vector<power::NodeId> tried;
    std::size_t round = 0;
    /** Set when a round found every rack tried: the search is over. */
    bool exhausted = false;
};

/**
 * Refuse a population whose rows differ in length or interval: the
 * search reads them in place, and the prune fallback's embedding reads
 * every row at the first row's length.
 */
void
requireEquallyShaped(const std::vector<trace::TimeSeries> &itraces,
                     const char *what)
{
    for (const auto &ts : itraces)
        SOSIM_REQUIRE(trace::TraceView(ts).alignedWith(itraces.front()),
                      std::string(what) + ": traces differ in shape");
}

/**
 * Build the cold search state of `assignment` over the non-empty,
 * equally shaped instance rows `itraces`: instance peaks, every rack's
 * members and running-sum aggregate, the scratch rows and, when
 * pruning, the candidate index.
 */
SearchState
startSearch(const power::PowerTree &tree, const RemapConfig &config,
            const power::Assignment &assignment,
            const std::vector<trace::TimeSeries> &itraces,
            const cluster::ShapeIndex *shapes)
{
    const auto rack_ids = tree.racks();
    SearchState s(trace::TraceArena(rack_ids.size() + kCandidatesPerRound,
                                    itraces.front().size(),
                                    itraces.front().intervalMinutes()));
    // Every instance peak is read many times below (rack peak sums,
    // member scores, every pair of the swap scan): scan each row once.
    s.peaks.resize(itraces.size());
    util::parallelFor(itraces.size(), [&](std::size_t id) {
        s.peaks[id] = trace::peakOf(itraces[id]);
    });

    // Build per-rack state once; aggregates are maintained incrementally
    // after every accepted swap rather than rebuilt.  Rows are claimed
    // serially; the fills fan out per rack, each writing only its own
    // row and state.
    s.racks.resize(tree.nodeCount());
    const auto per_rack = tree.instancesPerRack(assignment);
    for (const auto rack : rack_ids) {
        s.racks[rack].members = per_rack[rack];
        s.racks[rack].aggRow = s.rows.addZeros();
    }
    // Scratch rows for the per-candidate "aggregate minus leaver" diffs.
    s.scratch.resize(kCandidatesPerRound);
    for (auto &row : s.scratch)
        row = s.rows.addZeros();
    util::parallelFor(rack_ids.size(), [&](std::size_t r) {
        auto &state = s.racks[rack_ids[r]];
        if (state.members.empty())
            return;
        double *agg = s.rows.mutableRow(state.aggRow);
        for (const auto i : state.members) {
            state.aggPeak = trace::accumulatePeakRow(agg, itraces[i]);
            state.peakSum += s.peaks[i];
        }
    });

    // The cluster candidate index (when pruning): embed every trace's
    // diurnal shape, cluster once, and let the scan skip partners from
    // clusters too synchronous with the candidate's before any kernel
    // pass runs.
    s.prune = config.prune == PruneMode::kCluster && itraces.size() >= 2;
    if (s.prune) {
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
            for (std::size_t i = 0; i < itraces.size(); ++i)
                trace_rows[i] = itraces[i].samples().data();
            local_points = cluster::shapePoints(
                trace_rows, itraces.front().size(),
                cluster::kDefaultShapeBuckets);
            points = &local_points;
        }
        s.pruneIndex = cluster::CandidatePairIndex::build(
            *points, config.pruneKeepFraction);
        SOSIM_GAUGE_SET("remap.prune_clusters", s.pruneIndex.clusterCount());
    }
    return s;
}

/**
 * Run rounds until `swaps` holds config.maxSwaps swaps or every rack is
 * tried, applying each accepted swap to `assignment` and to `s`.
 * `itraces` holds the instance rows `s` was started on.
 */
void
runRounds(const power::PowerTree &tree, const RemapConfig &config,
          const std::vector<trace::TimeSeries> &itraces, SearchState &s,
          power::Assignment &assignment, std::vector<SwapRecord> &swaps,
          const std::vector<double> *validity)
{
    const auto rack_ids = tree.racks();
    auto &rows = s.rows;
    const auto &scratch = s.scratch;
    auto &racks = s.racks;
    const auto &peaks = s.peaks;
    const bool prune = s.prune;
    const auto &prune_index = s.pruneIndex;

    // Degraded-data filter: instances whose telemetry is mostly
    // fabricated stay where they are (they still weigh on their rack's
    // aggregate — the power is real even if the trace shape is not).
    const auto swappable = [&](std::size_t instance) {
        return validity == nullptr ||
               (*validity)[instance] >= trace::kMinValidFraction;
    };

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
        const trace::TraceView agg = rows.view(rack.aggRow);
        const std::size_t others = count - 1;
        util::parallelFor(count, [&](std::size_t m) {
            const std::size_t i = rack.members[m];
            if (others == 0)
                return; // scoreBefore stays at the 2.0 convention.
            const trace::TraceView member(itraces[i]);
            const double others_peak = trace::peakOfDiff(agg, member);
            rack.othersPeak[m] = others_peak;
            const double scale = 1.0 / static_cast<double>(others);
            const double aggregate_peak =
                trace::peakOfAddScaledDiff(member, agg, member, scale);
            rack.scoreBefore[m] =
                aggregate_peak <= 0.0
                    ? 0.0
                    : (peaks[i] + scale * others_peak) / aggregate_peak;
        });
        rack.cacheValid = true;
    };

    auto &tried = s.tried;
    // Per-(candidate, rack) scan slots and reject tallies, reused across
    // rounds.
    std::vector<ScanSlot> slots;
    std::vector<RejectTally> tally;
    while (!s.exhausted && static_cast<int>(swaps.size()) < config.maxSwaps) {
        SOSIM_SPAN("remap.round");
        SOSIM_COUNT("remap.rounds");
        const std::size_t round = ++s.round;
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
        if (worst_rack == power::kNoNode) {
            s.exhausted = true; // Every rack tried without a swap.
            break;
        }

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
            std::min(kCandidatesPerRound, scored.size());

        // Hoist the per-candidate "rack A minus leaver" row and its peak
        // out of the pair scan: one materializing pass per candidate
        // replaces a peakOfDiff + three-stream fused pass per *pair*.
        // Fanned out per candidate; each writes only its scratch row.
        const std::size_t others_a = rack_a.members.size() - 1;
        std::vector<double> cand_others_peak(candidates, 0.0);
        util::parallelFor(candidates, [&](std::size_t c) {
            cand_others_peak[c] = trace::diffPeakRow(
                rows.mutableRow(scratch[c]), rows.view(rack_a.aggRow),
                itraces[scored[c].second]);
        });

        // 3. Best improving swap across all other racks: one index per
        // (candidate, rack) evaluates the rack's members against the
        // candidate and writes only its own slot; the serial reduction
        // below folds the slots in (candidate, rack) order, so ties
        // resolve as in the nested loop for any thread count.
        const std::size_t rack_count = rack_ids.size();
        const std::size_t pairs = candidates * rack_count;
        slots.assign(pairs, ScanSlot{});
        // Reject journaling is tallied per index and reduced to one
        // event per candidate per reason after the scan (see
        // RejectTally) — never emitted from inside the hot loop.
        const bool recording = obs::EventRecorder::instance().enabled();
        tally.assign(recording ? pairs : 0, RejectTally{});
        const auto scanPair = [&](std::size_t index) {
            const std::size_t c = index / rack_count;
            const power::NodeId rack_b_id = rack_ids[index % rack_count];
            if (rack_b_id == worst_rack)
                return;
            const auto &rack_b = racks[rack_b_id];
            if (rack_b.members.empty())
                return;
            const std::size_t inst_a = scored[c].second;
            const double score_a_before = scored[c].first;
            const trace::TraceView inst_a_row(itraces[inst_a]);
            const double inst_a_peak = peaks[inst_a];
            const trace::TraceView others_a_row = rows.view(scratch[c]);
            const std::size_t cluster_a =
                prune ? prune_index.clusterOf(inst_a) : 0;
            const trace::TraceView agg_b = rows.view(rack_b.aggRow);
            const std::size_t others_b = rack_b.members.size() - 1;
            const double scale_b =
                others_b == 0 ? 0.0 : 1.0 / static_cast<double>(others_b);
            // Accumulate locally and store once: neighbouring slots may
            // share a cache line across a chunk boundary.
            ScanSlot slot;
            for (std::size_t pos_b = 0; pos_b < rack_b.members.size();
                 ++pos_b) {
                const std::size_t inst_b = rack_b.members[pos_b];
                if (!swappable(inst_b)) {
                    if (recording)
                        tally[index].note(obs::RejectReason::ValidityGate,
                                          inst_b, 0.0, 0.0);
                    continue;
                }
                // Cluster prune: partners whose diurnal shape falls in a
                // cluster too synchronous with the candidate's never
                // reach a kernel pass.
                if (prune && !prune_index.allowed(
                                 cluster_a, prune_index.clusterOf(inst_b))) {
                    ++slot.pruned;
                    if (recording)
                        tally[index].note(obs::RejectReason::Pruned, inst_b,
                                          0.0, 0.0);
                    continue;
                }
                ++slot.evaluated;
                // Post-swap score of B at rack A first: it is the cheaper
                // pass (two streams against the hoisted row), and a pair
                // failing the improve-at-A rule skips the improve-at-B
                // evaluation entirely.  Pure reordering of the paper's
                // accept test — the accepted set is unchanged.
                const double score_a_after = diffScoreHoisted(
                    itraces[inst_b], peaks[inst_b], others_a_row,
                    cand_others_peak[c], others_a, score_a_before);
                if (score_a_after <= score_a_before) {
                    if (recording)
                        tally[index].note(obs::RejectReason::EarlyReject,
                                          inst_b, score_a_before,
                                          score_a_after);
                    continue;
                }
                const double score_b_before = rack_b.scoreBefore[pos_b];
                double score_b_after;
                if (others_b == 0) {
                    score_b_after = 2.0;
                } else {
                    const double numerator =
                        inst_a_peak + scale_b * rack_b.othersPeak[pos_b];
                    const double aggregate_peak =
                        trace::peakOfAddScaledDiffEarlyReject(
                            inst_a_row, agg_b, itraces[inst_b], scale_b,
                            numerator, score_b_before);
                    score_b_after = aggregate_peak <= 0.0
                                        ? 0.0
                                        : numerator / aggregate_peak;
                }
                // Accept only improving-both-nodes swaps (paper).
                if (score_b_after <= score_b_before) {
                    if (recording)
                        tally[index].note(obs::RejectReason::NoImprovement,
                                          inst_b, score_b_before,
                                          score_b_after);
                    continue;
                }
                const double gain = (score_a_after - score_a_before) +
                                    (score_b_after - score_b_before);
                if (gain > slot.gain) {
                    slot.gain = gain;
                    slot.posB = pos_b;
                    slot.scoreAtAAfter = score_a_after;
                    slot.scoreAtBAfter = score_b_after;
                }
            }
            slots[index] = slot;
        };
        // Rack occupancy varies, so oversubscribe the pool lanes with
        // about two chunks per lane per candidate and let dynamic claims
        // balance the load.
        util::parallelFor(
            pairs, scanPair,
            {.chunks = candidates * 2 * util::threadCount()});

        if (recording) {
            // One journal event per candidate per reject reason: the
            // partner count plus the nearest miss carry the decision
            // story a per-pair log would bury in repetition.
            for (std::size_t c = 0; c < candidates; ++c) {
                RejectTally sum;
                for (std::size_t r = 0; r < rack_count; ++r)
                    sum.merge(tally[c * rack_count + r]);
                const std::size_t inst_a = scored[c].second;
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

        std::size_t best_index = pairs;
        double best_gain = 0.0;
        std::uint64_t evaluated_pairs = 0;
        std::uint64_t pruned_pairs = 0;
        for (std::size_t index = 0; index < pairs; ++index) {
            const ScanSlot &slot = slots[index];
            evaluated_pairs += slot.evaluated;
            pruned_pairs += slot.pruned;
            if (slot.gain > best_gain) {
                best_gain = slot.gain;
                best_index = index;
            }
        }
        SOSIM_COUNT_ADD("remap.pairs_evaluated", evaluated_pairs);
        SOSIM_COUNT_ADD("remap.pairs_pruned", pruned_pairs);

        if (best_gain > 0.0) {
            const ScanSlot &slot = slots[best_index];
            const std::size_t c = best_index / rack_count;
            SwapRecord best;
            best.rackA = worst_rack;
            best.rackB = rack_ids[best_index % rack_count];
            auto &rack_b = racks[best.rackB];
            best.instanceA = scored[c].second;
            best.instanceB = rack_b.members[slot.posB];
            best.scoreAtABefore = scored[c].first;
            best.scoreAtAAfter = slot.scoreAtAAfter;
            best.scoreAtBBefore = rack_b.scoreBefore[slot.posB];
            best.scoreAtBAfter = slot.scoreAtBAfter;

            // Apply the swap and update both racks' state incrementally.
            SOSIM_COUNT("remap.swaps_accepted");
            // One fused sub/add-and-max pass per rack row, plus two
            // peak-sum adjustments.
            SOSIM_COUNT_ADD("remap.aggregate_updates", 2);
            auto it_a = std::find(rack_a.members.begin(),
                                  rack_a.members.end(), best.instanceA);
            SOSIM_ASSERT(it_a != rack_a.members.end(),
                         "Remapper: lost swap candidate A");
            *it_a = best.instanceB;
            rack_b.members[slot.posB] = best.instanceA;

            rack_a.aggPeak = trace::subAddPeakRow(
                rows.mutableRow(rack_a.aggRow), itraces[best.instanceB],
                itraces[best.instanceA]);
            rack_a.peakSum += peaks[best.instanceB] - peaks[best.instanceA];
            rack_b.aggPeak = trace::subAddPeakRow(
                rows.mutableRow(rack_b.aggRow), itraces[best.instanceA],
                itraces[best.instanceB]);
            rack_b.peakSum += peaks[best.instanceA] - peaks[best.instanceB];
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
}

} // namespace

/** The end-of-search state behind RemapState. */
class RemapState
{
  public:
    RemapConfig config;
    SearchState search;
};

namespace {

/**
 * refine()'s cold search, reading the instance rows in place from
 * `itraces`; with `kept` set, also keeps its end state.
 */
std::vector<SwapRecord>
refineCold(const power::PowerTree &tree, const RemapConfig &config,
           power::Assignment &assignment,
           const std::vector<trace::TimeSeries> &itraces,
           const std::vector<double> *validity,
           const cluster::ShapeIndex *shapes,
           std::shared_ptr<const RemapState> *kept)
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
        return {}; // Nothing to keep: extend() refines an empty one cold.
    requireEquallyShaped(itraces, "Remapper::refine");

    std::size_t excluded = 0;
    if (validity != nullptr)
        for (const double v : *validity)
            if (v < trace::kMinValidFraction)
                ++excluded;
    SOSIM_COUNT_ADD("remap.instances_excluded", excluded);

    // The instance rows are read in place, where the caller keeps them;
    // only the rack running sums and candidate scratch rows, which the
    // search writes, live in an arena of their own.
    SearchState s = startSearch(tree, config, assignment, itraces, shapes);
    std::vector<SwapRecord> swaps;
    runRounds(tree, config, itraces, s, assignment, swaps, validity);
    if (kept != nullptr)
        *kept = std::make_shared<const RemapState>(
            RemapState{config, std::move(s)});
    return swaps;
}

} // namespace

Remapper::Remapper(const power::PowerTree &tree, RemapConfig config)
    : tree_(tree), config_(config)
{
    SOSIM_REQUIRE(config.maxSwaps >= 0, "Remapper: maxSwaps must be >= 0");
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
    return refineCold(tree_, config_, assignment, itraces, validity, shapes,
                      nullptr);
}

RemapRun
Remapper::search(const power::Assignment &start,
                 const std::vector<trace::TimeSeries> &itraces,
                 const std::vector<double> *validity,
                 const cluster::ShapeIndex *shapes) const
{
    RemapRun run;
    run.assignment = start;
    run.swaps = refineCold(tree_, config_, run.assignment, itraces, validity,
                           shapes, &run.state);
    return run;
}

RemapRun
Remapper::extend(const RemapRun &base, const power::Assignment &start,
                 const std::vector<trace::TimeSeries> &itraces,
                 const std::vector<double> *validity,
                 const cluster::ShapeIndex *shapes) const
{
    RemapRun out;
    out.assignment = start;
    const RemapState *kept = base.state.get();
    if (kept == nullptr || kept->config.prune != config_.prune ||
        kept->config.pruneKeepFraction != config_.pruneKeepFraction) {
        out.swaps = refine(out.assignment, itraces, validity, shapes);
        return out;
    }
    SOSIM_REQUIRE(start.size() == itraces.size() &&
                      kept->search.peaks.size() == itraces.size(),
                  "Remapper::extend: base describes another population");
    SOSIM_REQUIRE(validity == nullptr ||
                      validity->size() == itraces.size(),
                  "Remapper::extend: validity vector size mismatch");
    SOSIM_COUNT("remap.resumed");

    // A budget the base run reached (or stopped short of, every rack
    // tried) is a prefix of its swaps: a cold run stops at that swap.
    const auto budget = static_cast<std::size_t>(config_.maxSwaps);
    if (budget <= base.swaps.size() || kept->search.exhausted) {
        const std::size_t k = std::min(budget, base.swaps.size());
        out.swaps.assign(base.swaps.begin(), base.swaps.begin() + k);
        for (const auto &swap : out.swaps) {
            out.assignment[swap.instanceA] = swap.rackB;
            out.assignment[swap.instanceB] = swap.rackA;
        }
        SOSIM_COUNT_ADD("remap.swaps_reused", k);
        return out;
    }

    // A larger budget goes on from a copy of the kept state: the rounds
    // a cold run would make next, on bit-identical aggregates and
    // caches.  The aggregate rows are copied, not re-summed from the
    // members: a re-sum rounds differently from the running sums.
    SOSIM_SPAN("remap.refine");
    SOSIM_EVENT_SCOPE(.kind = obs::EventKind::Scope,
                      .label = "remap.refine");
    SOSIM_COUNT_ADD("remap.swaps_reused", base.swaps.size());
    out.assignment = base.assignment;
    out.swaps = base.swaps;
    SOSIM_REQUIRE(kept->search.rows.alignedWith(itraces.front()),
                  "Remapper::extend: base state has another trace shape");
    requireEquallyShaped(itraces, "Remapper::extend");
    SearchState s = kept->search;
    runRounds(tree_, config_, itraces, s, out.assignment, out.swaps,
              validity);
    return out;
}

} // namespace sosim::core

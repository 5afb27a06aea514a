#ifndef SOSIM_CORE_REMAP_H
#define SOSIM_CORE_REMAP_H

/**
 * @file
 * Incremental remapping (section 3.6): when mid-/long-term workload drift
 * makes the current placement suboptimal, SmoothOperator finds the power
 * node with the most severe fragmentation (lowest asynchrony score),
 * identifies the member with the worst differential asynchrony score, and
 * swaps it with an instance of another node — accepting the swap only
 * when it raises the differential asynchrony scores at *both* nodes.
 *
 * The swap scan has one kernel path: the strict scan order with
 * early-reject peak kernels (trace/kernels.h), whose accept decisions
 * and accepted scores are exactly those of the materializing
 * formulation, so refine() reproduces the golden pipeline digest.
 *
 * RemapConfig holds only what callers vary: the swap budget and the
 * pruning mode and keep fraction.  The rest of the search is fixed:
 * kCandidatesPerRound swap-out candidates per round, the shared
 * validity floor trace::kMinValidFraction, and the pruner's automatic
 * cluster count and seed (cluster/candidate_index.h).
 */

#include <cstddef>
#include <memory>
#include <vector>

#include "power/power_tree.h"
#include "trace/time_series.h"

namespace sosim::cluster {
class ShapeIndex;
}

namespace sosim::core {

/**
 * Candidate-pair pruning strategy for the swap scan.  kOff evaluates
 * every (candidate, partner) pair — the exhaustive reference, exactly
 * the pre-prune behavior, bit for bit.  kCluster builds a
 * cluster::CandidatePairIndex over the population's diurnal shapes once
 * per refine() call and skips partners whose embedding cluster is
 * outside the candidate's allowed set before any kernel pass runs —
 * sublinear effective pair space, final score within a small epsilon of
 * exhaustive (tests/test_prune.cc pins both properties).
 */
enum class PruneMode { kOff, kCluster };

/** How many of the worst-scoring members of the fragmented node are
 *  considered as swap-out candidates each round. */
inline constexpr std::size_t kCandidatesPerRound = 4;

/** Parameters of the swap-based refinement. */
struct RemapConfig {
    /** Upper bound on accepted swaps per refine() call. */
    int maxSwaps = 64;
    /**
     * Candidate-pair pruning (see PruneMode).  kOff is bit-identical to
     * the exhaustive scan; kCluster trades an epsilon of final score for
     * a much smaller pair space at fleet populations.
     */
    PruneMode prune = PruneMode::kOff;
    /**
     * Fraction of clusters each candidate may partner with, farthest
     * centroids first (asynchronous shapes live far apart in the
     * embedding).  Clamped per build to keep at least one cluster; 1.0
     * keeps every cluster, making kCluster score-equivalent to kOff.
     */
    double pruneKeepFraction = 0.5;
};

/** One accepted swap, for reporting. */
struct SwapRecord {
    std::size_t instanceA = 0;
    std::size_t instanceB = 0;
    power::NodeId rackA = power::kNoNode;
    power::NodeId rackB = power::kNoNode;
    /** Differential score of A at rackA before, and of B at rackA after. */
    double scoreAtABefore = 0.0;
    double scoreAtAAfter = 0.0;
    /** Differential score of B at rackB before, and of A at rackB after. */
    double scoreAtBBefore = 0.0;
    double scoreAtBAfter = 0.0;
};

/**
 * Where one search stopped, kept so that a larger swap budget can go on
 * from it (Remapper::extend).  Opaque and immutable: any number of
 * resumes may start from one state.  It holds every rack's members in
 * swap order, the running-sum aggregate rows with their peaks and peak
 * sums, the per-member score caches, the instance peaks, the pruning
 * index, the tried racks, the round counter and the config of the run
 * — but no instance rows: a resume reads them in place from the
 * population it is given, as the search did.
 */
class RemapState;

/** A refinement together with the state its search stopped in. */
struct RemapRun {
    /** The refined assignment. */
    power::Assignment assignment;
    /** The accepted swaps, in order. */
    std::vector<SwapRecord> swaps;
    /**
     * The end-of-search state; set by Remapper::search() only, and not
     * for an empty population.
     */
    std::shared_ptr<const RemapState> state;
};

/** Swap-based incremental placement refinement. */
class Remapper
{
  public:
    /**
     * @param tree   The power infrastructure (not owned).
     * @param config Refinement parameters.
     */
    Remapper(const power::PowerTree &tree, RemapConfig config = {});

    /**
     * Refine an assignment in place against (possibly drifted) I-traces.
     *
     * @param assignment Placement to refine; updated in place.
     * @param itraces    Current averaged I-traces of every instance;
     *                   must be gap-free (repair degraded telemetry with
     *                   trace::repairAll first) and equally shaped.  The
     *                   search reads the rows in place, without copying
     *                   the population.
     * @param validity   Optional per-instance valid fraction *before*
     *                   repair (e.g. RepairSummary::validBefore).  When
     *                   given, instances below trace::kMinValidFraction
     *                   still count toward their rack's aggregate but
     *                   are never chosen as a swap-out candidate or a
     *                   swap partner: a trace that is mostly
     *                   repair-fabricated must not drive placement
     *                   churn.
     * @param shapes     Optional prebuilt cluster::ShapeIndex over
     *                   `itraces` (population order, default buckets).
     *                   Read only when config's prune is kCluster: the
     *                   pruner clusters these points instead of
     *                   re-embedding the population.  An index whose
     *                   size does not match the population is ignored
     *                   (the embedding is rebuilt locally).
     * @return The accepted swaps, in order.
     */
    std::vector<SwapRecord>
    refine(power::Assignment &assignment,
           const std::vector<trace::TimeSeries> &itraces,
           const std::vector<double> *validity = nullptr,
           const cluster::ShapeIndex *shapes = nullptr) const;

    /** Another name for refine(); only perfbench/ still calls it. */
    std::vector<SwapRecord>
    refineInPlace(power::Assignment &assignment,
                  const std::vector<trace::TimeSeries> &itraces,
                  const std::vector<double> *validity = nullptr,
                  const cluster::ShapeIndex *shapes = nullptr) const
    {
        return refine(assignment, itraces, validity, shapes);
    }

    /**
     * refine() on a copy of `start`, keeping the end-of-search state for
     * extend().  The assignment and swaps equal refine()'s bit for bit.
     */
    RemapRun search(const power::Assignment &start,
                    const std::vector<trace::TimeSeries> &itraces,
                    const std::vector<double> *validity = nullptr,
                    const cluster::ShapeIndex *shapes = nullptr) const;

    /**
     * refine() on a copy of `start` under this remapper's config, taking
     * what it can from `base`: a search() over the same start, itraces,
     * validity and shapes.  Bit-identical to refine() in every case.
     *
     * The search is a deterministic greedy loop and maxSwaps only
     * decides when it stops, so when base's config differs from this
     * one at most in maxSwaps:
     *   - a budget at most base's swap count takes base's first
     *     maxSwaps swaps, applied in order to `start` (equal budgets
     *     pass base through);
     *   - a larger budget returns base when base stopped early because
     *     every rack was tried, and otherwise resumes base's state and
     *     runs only the new rounds.
     * Any other config difference, or a base without state, refines
     * cold.  The result keeps no state.
     */
    RemapRun extend(const RemapRun &base, const power::Assignment &start,
                    const std::vector<trace::TimeSeries> &itraces,
                    const std::vector<double> *validity = nullptr,
                    const cluster::ShapeIndex *shapes = nullptr) const;

    /**
     * Asynchrony score of each rack under an assignment (1-member racks
     * score |members| = 1 by definition; empty racks score 0).
     */
    std::vector<double>
    rackScores(const power::Assignment &assignment,
               const std::vector<trace::TimeSeries> &itraces) const;

  private:
    const power::PowerTree &tree_;
    RemapConfig config_;
};

} // namespace sosim::core

#endif // SOSIM_CORE_REMAP_H

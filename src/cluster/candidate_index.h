#ifndef SOSIM_CLUSTER_CANDIDATE_INDEX_H
#define SOSIM_CLUSTER_CANDIDATE_INDEX_H

/**
 * @file
 * Cluster-pruned candidate pairs for the remap swap search.
 *
 * The exhaustive swap scan evaluates every (candidate, partner) pair —
 * O(n) kernel passes per candidate, O(n^2) over a refinement run.  At
 * fleet scale that is the dominant cost, yet most pairs are hopeless:
 * a swap only helps when the two instances' diurnal shapes are
 * *asynchronous*, and instances whose shapes fall in the same k-means
 * cluster of the embedding space are by construction synchronous (that
 * is exactly the property the placement stage exploits, section 3.5 of
 * the paper).
 *
 * CandidatePairIndex clusters the population once per refine() call and
 * precomputes, for every cluster, the set of *partner clusters worth
 * scanning*: the keepFraction farthest clusters by centroid distance —
 * cross-cluster pairs, where asynchronous partners live.  The swap scan
 * then asks allowed(clusterOf(a), clusterOf(b)) — one O(1) bitmap probe
 * — before any kernel pass runs, cutting the evaluated pair space to
 * roughly keepFraction * n per candidate.
 *
 * The clustering itself is fixed: k = ceil(sqrt(n)) clamped to [2, 32]
 * (and never more than n), seed kCandidateIndexSeed and at most
 * kCandidateIndexIterations Lloyd iterations.  Small k keeps the
 * clustering far below the pair-scan cost it prunes, and the index
 * needs rough clusters, not converged ones; only the keep fraction is
 * the caller's.
 *
 * Soundness: pruning only *restricts* the searched pair space; every
 * accepted swap still passes the paper's improve-at-both-nodes test, so
 * a pruned refinement is always a valid (possibly slightly less
 * improving) refinement.  tests/test_prune.cc pins the final-score gap
 * against exhaustive search to a fixed epsilon and the keepFraction = 1
 * configuration to exact parity (every cluster keeps every cluster, so
 * nothing is pruned).
 */

#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"

namespace sosim::cluster {

/** Seed of the index's k-means run. */
inline constexpr std::uint64_t kCandidateIndexSeed = 42;
/** Lloyd iteration cap of that run. */
inline constexpr int kCandidateIndexIterations = 8;

/**
 * The pruning structure: a k-means clustering of the population plus a
 * per-cluster bitmap of partner clusters worth scanning.
 */
class CandidatePairIndex
{
  public:
    /**
     * Cluster `points` (one embedding point per instance, shared
     * dimension) and precompute the partner bitmaps.  `keep_fraction`
     * is the fraction of clusters each candidate scans, farthest
     * first, in (0, 1]; at least one partner cluster is always kept,
     * and 1.0 keeps every cluster (pruning disabled, exact parity).
     * Deterministic for fixed inputs.
     */
    static CandidatePairIndex build(const std::vector<Point> &points,
                                    double keep_fraction);

    /** Number of clusters. */
    std::size_t clusterCount() const { return k_; }

    /** Cluster of instance i. */
    std::size_t clusterOf(std::size_t i) const { return assignment_[i]; }

    /** Partner clusters kept per cluster (ceil(keep_fraction * k)). */
    std::size_t keptPerCluster() const { return kept_; }

    /**
     * True when partners in cluster `cb` should be evaluated for a
     * candidate in cluster `ca` (O(1)).
     */
    bool allowed(std::size_t ca, std::size_t cb) const
    {
        return allowed_[ca * k_ + cb] != 0;
    }

  private:
    std::size_t k_ = 0;
    std::size_t kept_ = 0;
    std::vector<std::size_t> assignment_;
    /** Row-major k x k bitmap: allowed_[ca * k + cb]. */
    std::vector<std::uint8_t> allowed_;
};

/**
 * The default embedding remap uses for pruning: every trace downsampled
 * to `buckets` bucket means and normalized by its peak, so the point
 * captures the diurnal *shape* (when the instance draws power) and
 * discards magnitude.  One pass per trace; rows fan out via
 * util::parallelFor with per-slot writes (bit-identical for any thread
 * count).  Zero-power traces embed as the origin.
 */
std::vector<Point> shapePoints(const std::vector<const double *> &rows,
                               std::size_t samples, std::size_t buckets);

} // namespace sosim::cluster

#endif // SOSIM_CLUSTER_CANDIDATE_INDEX_H

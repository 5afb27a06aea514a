#ifndef SOSIM_CLUSTER_SHAPE_INDEX_H
#define SOSIM_CLUSTER_SHAPE_INDEX_H

/**
 * @file
 * A shared, fingerprinted store of diurnal-shape embeddings.
 *
 * Several consumers embed every instance's trace as a small normalized
 * shape vector (see shapePoints): the remap pruner clusters the shapes
 * to skip synchronous swap partners, fleet-scale placement can cluster
 * them directly instead of paying the |B|-kernel-pass score-vector
 * embedding, and the fragmentation monitor compares a week's shapes
 * against the training shapes to quantify workload drift.  Before the
 * ShapeIndex each of those call sites recomputed the embedding from the
 * raw traces on every call; now the index is built once per trace
 * population and passed around by const reference.
 *
 * The index carries a content fingerprint (byte-wise FNV-1a,
 * util::mixWord, over the embedding parameters and every point's
 * IEEE-754 bits), so it can flow along op-graph edges as a cached op
 * output: two indexes with equal fingerprints embed identical
 * populations identically.
 *
 * Determinism: build() delegates to shapePoints, which fans rows out
 * over util::parallelFor with per-slot writes — bit-identical points
 * for any thread count — and the fingerprint is computed serially in
 * row order afterwards.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"

namespace sosim::cluster {

/**
 * Default bucket count of the shape embedding: enough resolution to
 * separate day/night/evening phases without making the embedding pass
 * or the k-means over it noticeable next to the kernel work it saves.
 * (Previously a private constant of core::remap; hoisted here so every
 * consumer of one ShapeIndex agrees on the embedding dimension.)
 */
inline constexpr std::size_t kDefaultShapeBuckets = 16;

/**
 * An immutable population of shape embeddings plus its fingerprint.
 * Value semantics; cheap to move, deliberately not copied around by the
 * consumers (they take `const ShapeIndex &` or a pointer).
 */
class ShapeIndex
{
  public:
    /** An empty index (size 0, fingerprint of the empty population). */
    ShapeIndex() = default;

    /**
     * Embed one population: `rows[i]` points at instance i's samples
     * (all rows share `samples`).  Deterministic for fixed inputs; see
     * shapePoints for the embedding itself.
     */
    static ShapeIndex build(const std::vector<const double *> &rows,
                            std::size_t samples,
                            std::size_t buckets = kDefaultShapeBuckets);

    /**
     * Wrap an already-computed embedding (tests, or callers that
     * produced the points through shapePoints themselves).  The
     * fingerprint is recomputed from the arguments, so equality with a
     * built index holds whenever the values match.
     */
    static ShapeIndex fromPoints(std::vector<Point> points,
                                 std::size_t samples, std::size_t buckets);

    /** Number of embedded instances. */
    std::size_t size() const { return points_.size(); }

    bool empty() const { return points_.empty(); }

    /** Bucket count the index was built with (the requested one; the
     *  actual point dimension is min(buckets, samples)). */
    std::size_t buckets() const { return buckets_; }

    /** Samples per trace of the embedded population. */
    std::size_t samples() const { return samples_; }

    /** Embedding dimension of every point. */
    std::size_t dimensions() const
    {
        return points_.empty() ? 0 : points_.front().size();
    }

    /** All points, in population order. */
    const std::vector<Point> &points() const { return points_; }

    /** Point of instance `i` (checked). */
    const Point &point(std::size_t i) const;

    /**
     * Content fingerprint over (samples, buckets, every point's bits).
     * The caching identity of the index: equal fingerprints mean equal
     * embeddings of equal populations.
     */
    std::uint64_t fingerprint() const { return fingerprint_; }

    /**
     * Mean Euclidean distance between this index's points and
     * `other`'s, position-wise over the common prefix — the monitor's
     * shape-drift diagnostic (0.0 when either index is empty).  Order
     * of the two indexes does not matter.
     */
    double meanDriftFrom(const ShapeIndex &other) const;

  private:
    std::vector<Point> points_;
    std::size_t buckets_ = 0;
    std::size_t samples_ = 0;
    std::uint64_t fingerprint_ = 0;
};

} // namespace sosim::cluster

#endif // SOSIM_CLUSTER_SHAPE_INDEX_H

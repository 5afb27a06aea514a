#ifndef SOSIM_CLUSTER_SHAPE_INDEX_H
#define SOSIM_CLUSTER_SHAPE_INDEX_H

/**
 * @file
 * A shared store of diurnal-shape embeddings.
 *
 * Several consumers embed every instance's trace as a small normalized
 * shape vector (see shapePoints): the remap pruner clusters the shapes
 * to skip synchronous swap partners, and the fragmentation monitor
 * compares a week's shapes against the training shapes to quantify
 * workload drift.  The index is built once per trace population and
 * passed around by const reference, so neither consumer re-embeds the
 * raw traces.  (Placement does not read it: it clusters the paper's
 * asynchrony-score vectors, see core::placementEmbedding.)
 *
 * Determinism: build() delegates to shapePoints, which fans rows out
 * over util::parallelFor with per-slot writes — bit-identical points
 * for any thread count.
 */

#include <cstddef>
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
 * An immutable population of shape embeddings.
 * Value semantics; cheap to move, deliberately not copied around by the
 * consumers (they take `const ShapeIndex &` or a pointer).
 */
class ShapeIndex
{
  public:
    /** An empty index (size 0). */
    ShapeIndex() = default;

    /**
     * Embed one population: `rows[i]` points at instance i's samples
     * (all rows share `samples`).  Deterministic for fixed inputs; see
     * shapePoints for the embedding itself.
     */
    static ShapeIndex build(const std::vector<const double *> &rows,
                            std::size_t samples,
                            std::size_t buckets = kDefaultShapeBuckets);

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
};

} // namespace sosim::cluster

#endif // SOSIM_CLUSTER_SHAPE_INDEX_H

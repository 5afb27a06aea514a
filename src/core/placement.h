#ifndef SOSIM_CORE_PLACEMENT_H
#define SOSIM_CORE_PLACEMENT_H

/**
 * @file
 * The workload-aware service instance placement framework (section 3.5):
 *
 *   1. Extract S-traces of the top power-consumer services.
 *   2. Embed every instance as its asynchrony-score vector.
 *   3. Per tree level, k-means-cluster the instances reaching that level
 *      into h clusters (h a multiple of the node's fan-out q) to identify
 *      synchronous groups.
 *   4. Deal each cluster's members round-robin across the children, so
 *      synchronous instances spread out; recurse to the rack level.
 */

#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "core/asynchrony.h"
#include "power/power_tree.h"
#include "trace/kernels.h"
#include "trace/time_series.h"

namespace sosim::core {

/** Parameters of the placement framework. */
struct PlacementConfig {
    /** Number of S-traces to extract (|B| in the paper). */
    std::size_t topServices = 10;
    /** Clusters per child: h = q * clustersPerChild at each node. */
    std::size_t clustersPerChild = 2;
    /** Rebalance clusters to equal sizes before dealing (paper: "each of
     *  these clusters have the same number of instances"). */
    bool balanceClusters = true;
    /** K-means restarts at every node split. */
    int kmeansRestarts = 2;
    /** Maximum Lloyd iterations per k-means run. */
    int kmeansMaxIterations = 50;
    /** Seed for the clustering. */
    std::uint64_t seed = 42;
    /**
     * Scoring implementation: the fused kernel path (default) or the
     * materializing reference.  Both yield bit-identical placements for
     * a fixed seed; kReference exists for A/B benchmarks and tests.
     */
    ScoringImpl scoring = ScoringImpl::kFused;
    /**
     * Embedding path when scoring == kFused.  kStrict (the default)
     * scores pair by pair; kBlocked packs the populations into
     * trace::TraceArena buffers and runs the batch kernel
     * (core::scoreVectorsBlocked).  Both run the same peak kernels, so
     * the scores are the same.  Ignored for kReference scoring.
     */
    trace::KernelMode kernels = trace::KernelMode::kStrict;
};

/**
 * The population embedding the recursive distribution clusters: the
 * top config.topServices S-traces are extracted and every instance is
 * scored against them (core::embedPopulation).  The one place that
 * embedding is computed — PlacementEngine::place, placeSubtree and the
 * pipeline's place.embed node all call this.
 */
std::vector<cluster::Point>
placementEmbedding(const PlacementConfig &config,
                   const std::vector<trace::TimeSeries> &itraces,
                   const std::vector<std::size_t> &service_of);

/**
 * Derives workload-aware placements of service instances onto the racks
 * of a power tree.
 */
class PlacementEngine
{
  public:
    /**
     * @param tree   The power infrastructure (not owned; must outlive the
     *               engine).
     * @param config Algorithm parameters.
     */
    PlacementEngine(const power::PowerTree &tree, PlacementConfig config);

    /**
     * Compute a placement for the full datacenter.
     *
     * @param itraces    Averaged (training) I-trace of every instance.
     * @param service_of Service id of each instance.
     * @return Rack assignment of every instance.
     */
    power::Assignment
    place(const std::vector<trace::TimeSeries> &itraces,
          const std::vector<std::size_t> &service_of) const;

    /**
     * The recursive-distribution half of place(): derive a full
     * assignment from an already-computed population embedding (one
     * score vector per instance, see core::embedPopulation).  This is
     * the body of the pipeline's place.distribute node; place() is the
     * embedding followed by this call.
     */
    power::Assignment
    placeWithEmbedding(const std::vector<cluster::Point> &vectors) const;

    /**
     * Re-place only the instances of a subtree, leaving the rest of an
     * existing assignment untouched (used by Figure 9: optimizing the
     * subtree under one mid-level node without moving instances in or
     * out of it).
     *
     * @param itraces    Averaged I-trace of every instance.
     * @param service_of Service id of each instance.
     * @param assignment Existing placement, updated in place.
     * @param subtree    Node whose subtree is re-optimized.
     */
    void
    placeSubtree(const std::vector<trace::TimeSeries> &itraces,
                 const std::vector<std::size_t> &service_of,
                 power::Assignment &assignment,
                 power::NodeId subtree) const;

    const PlacementConfig &config() const { return config_; }

  private:
    /**
     * Level-frontier expansion of the balanced-partition recursion:
     * starting from (node, ids, seed), repeatedly split every task of
     * the current tree level into per-child tasks until the rack level
     * assigns.  Each level's tasks fan out over util::parallelFor, one
     * index per task; task t writes only its own children slot, and
     * concatenating the slots in frontier order rebuilds the next
     * frontier in exactly the order the old depth-first recursion
     * visited — so the derived assignment is bit-identical at any
     * thread count.
     */
    void distribute(const std::vector<cluster::Point> &vectors,
                    std::vector<std::size_t> ids, power::NodeId node,
                    power::Assignment &assignment,
                    std::uint64_t seed) const;

    const power::PowerTree &tree_;
    PlacementConfig config_;
};

} // namespace sosim::core

#endif // SOSIM_CORE_PLACEMENT_H

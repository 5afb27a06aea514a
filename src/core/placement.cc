#include "placement.h"

#include <algorithm>

#include "core/asynchrony.h"
#include "core/service_traces.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/parallel.h"

namespace sosim::core {

namespace {

/**
 * One pending node split of the level frontier: distribute `ids` across
 * the children of `node`, clustering with `seed`.
 */
struct DistributeTask {
    power::NodeId node = power::kNoNode;
    std::vector<std::size_t> ids;
    std::uint64_t seed = 0;
};

} // namespace

std::vector<cluster::Point>
placementEmbedding(const PlacementConfig &config,
                   const std::vector<trace::TimeSeries> &itraces,
                   const std::vector<std::size_t> &service_of)
{
    const auto straces =
        extractServiceTraces(itraces, service_of, config.topServices);
    return embedPopulation(itraces, straces.straces, config.scoring,
                           config.kernels);
}

PlacementEngine::PlacementEngine(const power::PowerTree &tree,
                                 PlacementConfig config)
    : tree_(tree), config_(config)
{
    SOSIM_REQUIRE(config.topServices >= 1,
                  "PlacementEngine: topServices must be >= 1");
    SOSIM_REQUIRE(config.clustersPerChild >= 1,
                  "PlacementEngine: clustersPerChild must be >= 1");
}

power::Assignment
PlacementEngine::place(const std::vector<trace::TimeSeries> &itraces,
                       const std::vector<std::size_t> &service_of) const
{
    SOSIM_SPAN("placement.place");
    SOSIM_REQUIRE(!itraces.empty(), "PlacementEngine::place: no instances");
    SOSIM_REQUIRE(service_of.size() == itraces.size(),
                  "PlacementEngine::place: service_of size mismatch");

    return placeWithEmbedding(
        placementEmbedding(config_, itraces, service_of));
}

power::Assignment
PlacementEngine::placeWithEmbedding(
    const std::vector<cluster::Point> &vectors) const
{
    SOSIM_REQUIRE(!vectors.empty(),
                  "PlacementEngine::placeWithEmbedding: no instances");
    std::vector<std::size_t> ids(vectors.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        ids[i] = i;

    power::Assignment assignment(vectors.size(), power::kNoNode);
    distribute(vectors, std::move(ids), tree_.root(), assignment,
               config_.seed);
    for (const auto rack : assignment)
        SOSIM_ASSERT(rack != power::kNoNode,
                     "PlacementEngine::place: unassigned instance");
    return assignment;
}

void
PlacementEngine::placeSubtree(const std::vector<trace::TimeSeries> &itraces,
                              const std::vector<std::size_t> &service_of,
                              power::Assignment &assignment,
                              power::NodeId subtree) const
{
    SOSIM_SPAN("placement.place_subtree");
    SOSIM_REQUIRE(assignment.size() == itraces.size(),
                  "placeSubtree: assignment size mismatch");
    SOSIM_REQUIRE(service_of.size() == itraces.size(),
                  "placeSubtree: service_of size mismatch");

    // Collect the instances currently placed under the subtree.
    const auto subtree_racks = tree_.racksUnder(subtree);
    std::vector<bool> in_subtree(tree_.nodeCount(), false);
    for (const auto rack : subtree_racks)
        in_subtree[rack] = true;
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < assignment.size(); ++i)
        if (assignment[i] != power::kNoNode && in_subtree[assignment[i]])
            ids.push_back(i);
    SOSIM_REQUIRE(!ids.empty(), "placeSubtree: subtree hosts no instances");

    // S-traces are extracted from the subtree's own population, mirroring
    // the paper's Figure 9 experiment.
    std::vector<trace::TimeSeries> sub_traces;
    std::vector<std::size_t> sub_service;
    sub_traces.reserve(ids.size());
    for (const auto i : ids) {
        sub_traces.push_back(itraces[i]);
        sub_service.push_back(service_of[i]);
    }
    const auto sub_vectors =
        placementEmbedding(config_, sub_traces, sub_service);

    // distribute() indexes vectors by instance id; scatter the subtree's
    // vectors into a full-size table.
    std::vector<cluster::Point> vectors(itraces.size());
    for (std::size_t k = 0; k < ids.size(); ++k)
        vectors[ids[k]] = sub_vectors[k];

    distribute(vectors, std::move(ids), subtree, assignment,
               config_.seed ^ (subtree * 0x9e3779b9ULL));
}

void
PlacementEngine::distribute(const std::vector<cluster::Point> &vectors,
                            std::vector<std::size_t> ids,
                            power::NodeId node,
                            power::Assignment &assignment,
                            std::uint64_t seed) const
{
    // Splits one task of the frontier exactly as the old depth-first
    // recursion split one node: same degenerate path, same k-means
    // configuration and seed, same dealing order.  Rack tasks assign
    // directly; assignment writes are race-free because sibling tasks
    // carry disjoint instance ids.
    const auto split = [&](const DistributeTask &task,
                           std::vector<DistributeTask> &children) {
        const auto &n = tree_.node(task.node);
        if (n.level == power::Level::Rack) {
            for (const auto i : task.ids)
                assignment[i] = task.node;
            return;
        }
        const std::size_t q = n.children.size();
        SOSIM_ASSERT(q >= 1, "distribute: interior node without children");

        std::vector<std::vector<std::size_t>> per_child(q);

        if (task.ids.size() <= q) {
            // Degenerate split: fewer instances than children.
            for (std::size_t k = 0; k < task.ids.size(); ++k)
                per_child[k % q].push_back(task.ids[k]);
        } else {
            // Cluster this population into h = q * clustersPerChild
            // groups of synchronous instances, then deal each cluster's
            // members across the children round-robin (with a
            // per-cluster starting offset so remainders spread evenly).
            std::vector<cluster::Point> points;
            points.reserve(task.ids.size());
            for (const auto i : task.ids)
                points.push_back(vectors[i]);

            cluster::KMeansConfig kc;
            kc.k = std::min(task.ids.size(),
                            q * config_.clustersPerChild);
            kc.restarts = config_.kmeansRestarts;
            kc.maxIterations = config_.kmeansMaxIterations;
            kc.seed = task.seed;
            auto result = cluster::kMeans(points, kc);
            if (config_.balanceClusters)
                cluster::equalizeClusterSizes(points, result);

            std::vector<std::vector<std::size_t>> clusters(kc.k);
            for (std::size_t k = 0; k < task.ids.size(); ++k)
                clusters[result.assignment[k]].push_back(task.ids[k]);

            for (std::size_t c = 0; c < clusters.size(); ++c)
                for (std::size_t m = 0; m < clusters[c].size(); ++m)
                    per_child[(m + c) % q].push_back(clusters[c][m]);
        }

        // Child seeds depend only on (task.seed, child), so every task
        // of the next frontier is seeded exactly as the recursion would
        // have seeded the corresponding recursive call.
        for (std::size_t child = 0; child < q; ++child) {
            if (per_child[child].empty())
                continue;
            children.push_back(DistributeTask{n.children[child],
                                              std::move(per_child[child]),
                                              task.seed + child + 1});
        }
    };

    std::vector<DistributeTask> frontier;
    frontier.push_back(DistributeTask{node, std::move(ids), seed});

    while (!frontier.empty()) {
        // One span per tree level, so the expansion reads as
        // placement.DC > placement.SUITE > ... in the trace tree (the
        // tree below any starting node is level-uniform, so the first
        // task names the whole frontier).
        obs::ScopedSpan level_span(
            "placement." +
            power::levelName(tree_.node(frontier.front().node).level));
        // Counters and fan-out observations depend only on the
        // frontier, so they are taken serially in frontier order.
        std::uint64_t instances_assigned = 0;
        for (const auto &task : frontier) {
            const auto &n = tree_.node(task.node);
            if (n.level == power::Level::Rack)
                instances_assigned += task.ids.size();
            else
                SOSIM_OBSERVE("placement.fanout", n.children.size());
        }
        SOSIM_COUNT_ADD("placement.nodes_visited", frontier.size());
        if (instances_assigned > 0)
            SOSIM_COUNT_ADD("placement.instances_assigned",
                            instances_assigned);

        // Every task is split independently and writes only its own
        // children slot; concatenating the slots in frontier order
        // rebuilds the next frontier in depth-first child order at any
        // thread count.
        std::vector<std::vector<DistributeTask>> children(frontier.size());
        util::parallelFor(
            frontier.size(),
            [&](std::size_t t) { split(frontier[t], children[t]); },
            {.chunks = 2 * util::threadCount()});

        std::vector<DistributeTask> next;
        for (auto &slot : children)
            for (auto &child : slot)
                next.push_back(std::move(child));
        frontier = std::move(next);
    }
}

} // namespace sosim::core

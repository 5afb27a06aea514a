#include "placement.h"

#include <algorithm>

#include "core/asynchrony.h"
#include "core/service_traces.h"
#include "obs/obs.h"
#include "trace/shard.h"
#include "util/error.h"
#include "util/parallel.h"

namespace sosim::core {

namespace {

/**
 * One pending node split of the level frontier: distribute `ids` across
 * the children of `node`, clustering with `seed`.  `parent` is the
 * task's index in the previous frontier, used only to group sibling
 * subtrees into the same shard (ShardPlan group ids are equality-only).
 */
struct DistributeTask {
    power::NodeId node = power::kNoNode;
    std::vector<std::size_t> ids;
    std::uint64_t seed = 0;
    std::size_t parent = 0;
};

/**
 * Per-shard accumulator of one level's fan-out.  Padded to a cache line
 * so concurrent shard tasks never share one; the serial reduction walks
 * slots in shard order, which — because a ShardPlan's concatenated
 * ranges reproduce the frontier order — rebuilds the next frontier in
 * exactly the order the old depth-first recursion produced children.
 */
struct alignas(64) PlaceShardSlot {
    std::uint64_t nodesVisited = 0;
    std::uint64_t instancesAssigned = 0;
    std::vector<std::size_t> fanouts;
    std::vector<DistributeTask> children;
};

/** Shape-embed a population of uniform-length traces (kShape path). */
std::vector<cluster::Point>
shapeEmbed(const std::vector<trace::TimeSeries> &traces,
           const cluster::ShapeIndex *shapes)
{
    if (shapes != nullptr && shapes->size() == traces.size())
        return shapes->points();
    const std::size_t samples = traces.front().samples().size();
    std::vector<const double *> rows;
    rows.reserve(traces.size());
    for (const auto &t : traces) {
        SOSIM_REQUIRE(t.samples().size() == samples,
                      "placement: kShape requires uniform trace length");
        rows.push_back(t.samples().data());
    }
    return cluster::ShapeIndex::build(rows, samples).points();
}

} // namespace

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
                       const std::vector<std::size_t> &service_of,
                       const cluster::ShapeIndex *shapes) const
{
    SOSIM_SPAN("placement.place");
    SOSIM_REQUIRE(!itraces.empty(), "PlacementEngine::place: no instances");
    SOSIM_REQUIRE(service_of.size() == itraces.size(),
                  "PlacementEngine::place: service_of size mismatch");

    if (config_.embedding == PlacementEmbedding::kShape)
        return placeWithEmbedding(shapeEmbed(itraces, shapes));
    const auto straces =
        extractServiceTraces(itraces, service_of, config_.topServices);
    return placeWithEmbedding(embedPopulation(
        itraces, straces.straces, config_.scoring, config_.kernels));
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
    std::vector<cluster::Point> sub_vectors;
    if (config_.embedding == PlacementEmbedding::kShape) {
        sub_vectors = shapeEmbed(sub_traces, nullptr);
    } else {
        const auto straces = extractServiceTraces(
            sub_traces, sub_service, config_.topServices);
        sub_vectors = embedPopulation(
            sub_traces, straces.straces, config_.scoring, config_.kernels);
    }

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
    const auto split = [&](const DistributeTask &task, std::size_t index,
                           PlaceShardSlot &slot) {
        const auto &n = tree_.node(task.node);
        ++slot.nodesVisited;
        if (n.level == power::Level::Rack) {
            slot.instancesAssigned += task.ids.size();
            for (const auto i : task.ids)
                assignment[i] = task.node;
            return;
        }
        const std::size_t q = n.children.size();
        SOSIM_ASSERT(q >= 1, "distribute: interior node without children");
        slot.fanouts.push_back(q);

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
            slot.children.push_back(DistributeTask{
                n.children[child], std::move(per_child[child]),
                task.seed + child + 1, index});
        }
    };

    std::vector<DistributeTask> frontier;
    frontier.push_back(DistributeTask{node, std::move(ids), seed, 0});

    while (!frontier.empty()) {
#if SOSIM_OBS_ENABLED
        // One span per tree level, so the expansion reads as
        // placement.DC > placement.SUITE > ... in the trace tree (the
        // tree below any starting node is level-uniform, so the first
        // task names the whole frontier).
        obs::ScopedSpan level_span(
            "placement." +
            power::levelName(tree_.node(frontier.front().node).level));
#endif
        // Shard the frontier into contiguous blocks that never split a
        // parent's children apart, so each block covers a few whole
        // power subtrees.  The shard count tracks the pool width, but
        // results cannot depend on it: every task is split
        // independently, and the reduction below is serial.
        std::vector<std::size_t> group_of(frontier.size());
        for (std::size_t t = 0; t < frontier.size(); ++t)
            group_of[t] = frontier[t].parent;
        const auto plan = trace::ShardPlan::build(
            group_of, util::threadCount() * 2);

        std::vector<PlaceShardSlot> slots(plan.shardCount());
        util::parallelFor(
            plan.shardCount(),
            [&](std::size_t s) {
                const auto &range = plan.range(s);
                for (std::size_t t = range.begin; t < range.end; ++t)
                    split(frontier[t], t, slots[s]);
            },
            util::ParallelForOptions{2, plan.shardCount()});

        // Serial reduction in shard order = frontier order: totals fold
        // in the order the recursion observed them, and concatenating
        // the slots' children rebuilds the next frontier in depth-first
        // child order regardless of thread or shard count.
        std::vector<DistributeTask> next;
#if SOSIM_OBS_ENABLED
        std::uint64_t nodes_visited = 0;
        std::uint64_t instances_assigned = 0;
#endif
        for (auto &slot : slots) {
#if SOSIM_OBS_ENABLED
            nodes_visited += slot.nodesVisited;
            instances_assigned += slot.instancesAssigned;
            for (const auto fanout : slot.fanouts)
                SOSIM_OBSERVE("placement.fanout", fanout);
#endif
            for (auto &child : slot.children)
                next.push_back(std::move(child));
        }
#if SOSIM_OBS_ENABLED
        SOSIM_COUNT_ADD("placement.nodes_visited", nodes_visited);
        if (instances_assigned > 0)
            SOSIM_COUNT_ADD("placement.instances_assigned",
                            instances_assigned);
#endif
        frontier = std::move(next);
    }
}

} // namespace sosim::core

#ifndef SOSIM_CORE_FINGERPRINTS_H
#define SOSIM_CORE_FINGERPRINTS_H

/**
 * @file
 * Content fingerprints of the domain types that flow along op-graph
 * edges: trace populations, assignments, trees and the config structs.
 *
 * A fingerprint is the caching identity of a graph::Value — two inputs
 * with equal fingerprints are interchangeable to the op graph — so every
 * helper here hashes exactly the fields an op can observe and nothing
 * else.  Config fingerprints are deliberately *partial* where the
 * pipeline splits one struct across ops: fingerprintEmbedConfig covers
 * the fields the embedding reads (topServices, scoring, kernels) while
 * fingerprintDistributeConfig covers the recursive-distribution fields,
 * so a what-if that only changes the clustering seed leaves the embed
 * node's signature — and its cached output — intact.
 *
 * All helpers are pure, deterministic and platform-independent for a
 * fixed input (word-wise FNV-1a over integer bit patterns; doubles are
 * hashed by their IEEE-754 bits, which the determinism contract already
 * fixes per seed).
 */

#include <cstdint>
#include <cstring>

#include "core/monitor.h"
#include "core/placement.h"
#include "core/remap.h"
#include "graph/graph.h"
#include "power/power_tree.h"
#include "trace/time_series.h"

namespace sosim::core {

/** Fingerprint of one series (interval + every sample's bits). */
inline std::uint64_t
fingerprintTrace(const trace::TimeSeries &ts,
                 std::uint64_t seed = graph::kFnvOffset)
{
    std::uint64_t h = graph::hashCombine(
        seed, static_cast<std::uint64_t>(ts.intervalMinutes()));
    return graph::fingerprintDoubles(ts.samples().data(), ts.size(), h);
}

/** Fingerprint of a whole trace population, order-sensitive. */
inline std::uint64_t
fingerprintTraces(const std::vector<trace::TimeSeries> &traces)
{
    std::uint64_t h = graph::hashCombine(graph::kFnvOffset,
                                         traces.size());
    for (const auto &ts : traces)
        h = fingerprintTrace(ts, h);
    return h;
}

/** Fingerprint of a rack assignment. */
inline std::uint64_t
fingerprintAssignment(const power::Assignment &assignment)
{
    std::uint64_t h = graph::hashCombine(graph::kFnvOffset,
                                         assignment.size());
    for (const auto rack : assignment)
        h = graph::hashCombine(h, static_cast<std::uint64_t>(rack));
    return h;
}

/** Fingerprint of a service-id vector. */
inline std::uint64_t
fingerprintServices(const std::vector<std::size_t> &service_of)
{
    std::uint64_t h = graph::hashCombine(graph::kFnvOffset,
                                         service_of.size());
    for (const auto s : service_of)
        h = graph::hashCombine(h, static_cast<std::uint64_t>(s));
    return h;
}

/** The PlacementConfig fields the embedding stage observes. */
inline std::uint64_t
fingerprintEmbedConfig(const PlacementConfig &c)
{
    std::uint64_t h = graph::fingerprintString("embed-config");
    h = graph::hashCombine(h, c.topServices);
    h = graph::hashCombine(h, static_cast<std::uint64_t>(c.scoring));
    h = graph::hashCombine(h, static_cast<std::uint64_t>(c.kernels));
    h = graph::hashCombine(h, static_cast<std::uint64_t>(c.embedding));
    return h;
}

/** The PlacementConfig fields the recursive distribution observes. */
inline std::uint64_t
fingerprintDistributeConfig(const PlacementConfig &c)
{
    std::uint64_t h = graph::fingerprintString("distribute-config");
    h = graph::hashCombine(h, c.clustersPerChild);
    h = graph::hashCombine(h, c.balanceClusters ? 1u : 0u);
    h = graph::hashCombine(h, static_cast<std::uint64_t>(c.kmeansRestarts));
    h = graph::hashCombine(
        h, static_cast<std::uint64_t>(c.kmeansMaxIterations));
    h = graph::hashCombine(h, c.seed);
    return h;
}

/**
 * Deliberately excludes RemapConfig::shards and shardLevel: the shard
 * plan only shapes the fan-out of the swap scan, never its result (the
 * sharded reduction reproduces the unsharded visit order exactly — see
 * trace/shard.h), so a what-if that merely re-shards reuses the cached
 * refinement.  The prune knobs *do* change the searched pair space and
 * are all hashed.
 */
inline std::uint64_t
fingerprintRemapConfig(const RemapConfig &c)
{
    std::uint64_t h = graph::fingerprintString("remap-config");
    h = graph::hashCombine(h, static_cast<std::uint64_t>(c.maxSwaps));
    h = graph::hashCombine(h, c.candidatesPerRound);
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(c.minValidFraction));
    std::memcpy(&bits, &c.minValidFraction, sizeof(bits));
    h = graph::hashCombine(h, bits);
    h = graph::hashCombine(h, static_cast<std::uint64_t>(c.prune));
    h = graph::hashCombine(h, c.pruneClusters);
    std::memcpy(&bits, &c.pruneKeepFraction, sizeof(bits));
    h = graph::hashCombine(h, bits);
    h = graph::hashCombine(h, c.pruneSeed);
    return h;
}

/** The MonitorConfig fields measureWeek observes (not the thresholds:
 *  those act in FragmentationMonitor::ingest, outside the graph, so a
 *  threshold-only what-if re-uses every cached measurement). */
inline std::uint64_t
fingerprintMonitorMeasureConfig(const MonitorConfig &c)
{
    std::uint64_t h = graph::fingerprintString("monitor-measure-config");
    h = graph::hashCombine(h, static_cast<std::uint64_t>(c.level));
    h = graph::hashCombine(h, static_cast<std::uint64_t>(c.repairPolicy));
    std::uint64_t bits;
    std::memcpy(&bits, &c.minValidFraction, sizeof(bits));
    h = graph::hashCombine(h, bits);
    return h;
}

/** Fingerprint of a power tree: topology plus every node's budget. */
inline std::uint64_t
fingerprintTree(const power::PowerTree &tree)
{
    std::uint64_t h = graph::hashCombine(graph::kFnvOffset,
                                         tree.nodeCount());
    for (power::NodeId id = 0; id < tree.nodeCount(); ++id) {
        const auto &n = tree.node(id);
        h = graph::hashCombine(h, static_cast<std::uint64_t>(n.parent));
        h = graph::hashCombine(h, static_cast<std::uint64_t>(n.level));
        std::uint64_t bits;
        const double budget = n.budgetWatts;
        std::memcpy(&bits, &budget, sizeof(bits));
        h = graph::hashCombine(h, bits);
    }
    return h;
}

} // namespace sosim::core

#endif // SOSIM_CORE_FINGERPRINTS_H

#ifndef SOSIM_CORE_FINGERPRINTS_H
#define SOSIM_CORE_FINGERPRINTS_H

/**
 * @file
 * Content fingerprints of the op graph's inputs and configs (trace
 * populations, service maps, trees, config structs) and of assignments
 * (the serve digest).
 *
 * A fingerprint is the caching identity of an input graph::Value — two
 * inputs with equal fingerprints are interchangeable to the op graph,
 * whose op outputs are named by signature instead — so every
 * helper here hashes exactly the fields an op can observe and nothing
 * else.  Config fingerprints are deliberately *partial* where the
 * pipeline splits one struct across ops: fingerprintEmbedConfig covers
 * the fields the score-vector embedding reads (topServices, scoring,
 * kernels) while fingerprintDistributeConfig covers the
 * recursive-distribution fields, so a what-if that only changes the
 * clustering seed leaves the embed node's signature — and its cached
 * output — intact.
 *
 * All helpers are pure, deterministic and platform-independent for a
 * fixed input (word-wise FNV-1a over integer bit patterns; doubles are
 * hashed by their IEEE-754 bits, which the determinism contract already
 * fixes per seed).
 */

#include <cstdint>

#include "cluster/candidate_index.h"
#include "core/monitor.h"
#include "core/placement.h"
#include "core/remap.h"
#include "power/power_tree.h"
#include "trace/repair.h"
#include "trace/time_series.h"
#include "util/hash.h"

namespace sosim::core {

/** Fingerprint of one series (interval + every sample's bits). */
inline std::uint64_t
fingerprintTrace(const trace::TimeSeries &ts,
                 std::uint64_t seed = util::kFnvOffset)
{
    std::uint64_t h = util::hashCombine(
        seed, static_cast<std::uint64_t>(ts.intervalMinutes()));
    return util::fingerprintDoubles(ts.samples().data(), ts.size(), h);
}

/** Fingerprint of a whole trace population, order-sensitive. */
inline std::uint64_t
fingerprintTraces(const std::vector<trace::TimeSeries> &traces)
{
    std::uint64_t h = util::hashCombine(util::kFnvOffset,
                                         traces.size());
    for (const auto &ts : traces)
        h = fingerprintTrace(ts, h);
    return h;
}

/** Fingerprint of a rack assignment. */
inline std::uint64_t
fingerprintAssignment(const power::Assignment &assignment)
{
    std::uint64_t h = util::hashCombine(util::kFnvOffset,
                                         assignment.size());
    for (const auto rack : assignment)
        h = util::hashCombine(h, static_cast<std::uint64_t>(rack));
    return h;
}

/** Fingerprint of a service-id vector. */
inline std::uint64_t
fingerprintServices(const std::vector<std::size_t> &service_of)
{
    std::uint64_t h = util::hashCombine(util::kFnvOffset,
                                         service_of.size());
    for (const auto s : service_of)
        h = util::hashCombine(h, static_cast<std::uint64_t>(s));
    return h;
}

/**
 * The PlacementConfig fields the embedding stage observes.  The former
 * embedding selector is hashed as the constant 0 (the score-vector
 * embedding, now the only one), so the fingerprint keeps its value and
 * checkpoints written by earlier builds still restore.
 */
inline std::uint64_t
fingerprintEmbedConfig(const PlacementConfig &c)
{
    std::uint64_t h = util::fingerprintString("embed-config");
    h = util::hashCombine(h, c.topServices);
    h = util::hashCombine(h, static_cast<std::uint64_t>(c.scoring));
    h = util::hashCombine(h, static_cast<std::uint64_t>(c.kernels));
    h = util::hashCombine(h, 0); // Score-vector embedding.
    return h;
}

/** The PlacementConfig fields the recursive distribution observes. */
inline std::uint64_t
fingerprintDistributeConfig(const PlacementConfig &c)
{
    std::uint64_t h = util::fingerprintString("distribute-config");
    h = util::hashCombine(h, c.clustersPerChild);
    h = util::hashCombine(h, c.balanceClusters ? 1u : 0u);
    h = util::hashCombine(h, static_cast<std::uint64_t>(c.kmeansRestarts));
    h = util::hashCombine(
        h, static_cast<std::uint64_t>(c.kmeansMaxIterations));
    h = util::hashCombine(h, c.seed);
    return h;
}

/**
 * Hashes every RemapConfig field: each one can change the refinement.
 * The swap scan's fan-out is not configurable (it follows the pool's
 * thread count and never changes the result), so it is not part of the
 * key.  Four former fields are constants now — the candidates per
 * round, the validity floor, the prune cluster count (0, automatic) and
 * the prune seed — and each is hashed where its field was, so the
 * fingerprint keeps its value and checkpoints written by earlier builds
 * still restore.
 */
inline std::uint64_t
fingerprintRemapConfig(const RemapConfig &c)
{
    std::uint64_t h = util::fingerprintString("remap-config");
    h = util::hashCombine(h, static_cast<std::uint64_t>(c.maxSwaps));
    h = util::hashCombine(h, kCandidatesPerRound);
    h = util::hashCombine(h, util::doubleBits(trace::kMinValidFraction));
    h = util::hashCombine(h, static_cast<std::uint64_t>(c.prune));
    h = util::hashCombine(h, 0); // Automatic cluster count.
    h = util::hashCombine(h, util::doubleBits(c.pruneKeepFraction));
    h = util::hashCombine(h, cluster::kCandidateIndexSeed);
    return h;
}

/**
 * The MonitorConfig fields measureWeek observes (not the thresholds:
 * those act in FragmentationMonitor::ingest, outside the graph, so a
 * threshold-only what-if re-uses every cached measurement).  The
 * repair policy and validity floor are constants now; they are hashed
 * where their former fields were, so the fingerprint keeps its value
 * and checkpoints written by earlier builds still restore.
 */
inline std::uint64_t
fingerprintMonitorMeasureConfig(const MonitorConfig &c)
{
    std::uint64_t h = util::fingerprintString("monitor-measure-config");
    h = util::hashCombine(h, static_cast<std::uint64_t>(c.level));
    h = util::hashCombine(h,
                           static_cast<std::uint64_t>(kMonitorRepairPolicy));
    h = util::hashCombine(h, util::doubleBits(trace::kMinValidFraction));
    return h;
}

/** Fingerprint of a power tree: topology, and 0.0 where budgets were. */
inline std::uint64_t
fingerprintTree(const power::PowerTree &tree)
{
    std::uint64_t h = util::hashCombine(util::kFnvOffset,
                                         tree.nodeCount());
    for (power::NodeId id = 0; id < tree.nodeCount(); ++id) {
        const auto &n = tree.node(id);
        h = util::hashCombine(h, static_cast<std::uint64_t>(n.parent));
        h = util::hashCombine(h, static_cast<std::uint64_t>(n.level));
        h = util::hashCombine(h, util::doubleBits(0.0));
    }
    return h;
}

} // namespace sosim::core

#endif // SOSIM_CORE_FINGERPRINTS_H

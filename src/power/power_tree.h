#ifndef SOSIM_POWER_POWER_TREE_H
#define SOSIM_POWER_POWER_TREE_H

/**
 * @file
 * The multi-level power delivery tree.
 *
 * The tree is fully immutable once built: no node carries mutable state.
 * Service-instance placements are represented externally as an
 * Assignment (instance index -> rack node id) so that alternative
 * placements over the same infrastructure can be compared side by side,
 * which is exactly what the paper's evaluation does.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "power/level.h"
#include "trace/kernels.h"
#include "trace/time_series.h"

namespace sosim::power {

/** Index of a node within a PowerTree. */
using NodeId = std::size_t;

/** Sentinel for "no node" (the root's parent). */
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/**
 * A placement: element i is the rack (leaf power node) that service
 * instance i is connected to.
 */
using Assignment = std::vector<NodeId>;

/** One power delivery device in the tree. */
struct PowerNode {
    NodeId id = kNoNode;
    Level level = Level::Datacenter;
    NodeId parent = kNoNode;
    std::vector<NodeId> children;
    /** Stable human-readable name, e.g. "dc0/suite1/msb0/sb1/rpp2/rack3". */
    std::string name;
};

/** Fan-out of each tree level; defaults follow DESIGN.md section 6. */
struct TopologySpec {
    int suites = 4;
    int msbsPerSuite = 2;
    int sbsPerMsb = 2;
    int rppsPerSb = 4;
    int racksPerRpp = 4;

    /** Total number of racks this specification yields. */
    int totalRacks() const
    {
        return suites * msbsPerSuite * sbsPerMsb * rppsPerSb * racksPerRpp;
    }
};

/**
 * A fully immutable power delivery tree built from a TopologySpec.
 *
 * Node 0 is always the datacenter root; children are contiguous and
 * ordered, so nodesAtLevel() returns stable, deterministic id lists.
 */
class PowerTree
{
  public:
    /** Build the full tree for a topology specification. */
    explicit PowerTree(const TopologySpec &spec);

    /** The specification this tree was built from. */
    const TopologySpec &spec() const { return spec_; }

    /** Total number of nodes across all levels. */
    std::size_t nodeCount() const { return nodes_.size(); }

    /** Node lookup (checked). */
    const PowerNode &node(NodeId id) const;

    /** The root (datacenter) node id. */
    NodeId root() const { return 0; }

    /** Ids of all nodes at the given level, in construction order. */
    const std::vector<NodeId> &nodesAtLevel(Level level) const;

    /** Ids of all rack (leaf) nodes. */
    const std::vector<NodeId> &racks() const
    {
        return nodesAtLevel(Level::Rack);
    }

    /** All rack ids in the subtree rooted at `id`. */
    std::vector<NodeId> racksUnder(NodeId id) const;

    /**
     * Aggregate per-node power traces for a placement.
     *
     * @param instance_traces Trace of each service instance, indexed by
     *                        instance id.
     * @param assignment      Rack id for each instance; must be racks of
     *                        this tree and cover every instance.
     * @return One aggregate trace per node, indexed by NodeId; parents are
     *         the exact sample-wise sum of their children.
     *
     * The view overload is the one aggregation loop; the TimeSeries
     * overload views its series and calls it.
     */
    std::vector<trace::TimeSeries>
    aggregateTraces(const std::vector<trace::TimeSeries> &instance_traces,
                    const Assignment &assignment) const;
    std::vector<trace::TimeSeries>
    aggregateTraces(const std::vector<trace::TraceView> &instance_traces,
                    const Assignment &assignment) const;

    /**
     * Sum of per-node peak power at one level (the paper's fragmentation
     * indicator, section 2.2) given per-node aggregate traces.
     */
    double sumOfPeaks(const std::vector<trace::TimeSeries> &node_traces,
                      Level level) const;

    /** Instances assigned to each rack under `assignment`. */
    std::vector<std::vector<std::size_t>>
    instancesPerRack(const Assignment &assignment) const;

  private:
    NodeId addNode(Level level, NodeId parent, const std::string &name);

    TopologySpec spec_;
    std::vector<PowerNode> nodes_;
    std::vector<std::vector<NodeId>> byLevel_;
};

} // namespace sosim::power

#endif // SOSIM_POWER_POWER_TREE_H

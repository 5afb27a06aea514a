#include "power_tree.h"

#include <algorithm>
#include <string>

#include "util/error.h"

namespace sosim::power {

PowerTree::PowerTree(const TopologySpec &spec)
    : spec_(spec), byLevel_(kNumLevels)
{
    SOSIM_REQUIRE(spec.suites >= 1 && spec.msbsPerSuite >= 1 &&
                      spec.sbsPerMsb >= 1 && spec.rppsPerSb >= 1 &&
                      spec.racksPerRpp >= 1,
                  "PowerTree: all fan-outs must be >= 1");

    const NodeId dc = addNode(Level::Datacenter, kNoNode, "dc");
    for (int s = 0; s < spec.suites; ++s) {
        const std::string sn = "suite" + std::to_string(s);
        const NodeId suite = addNode(Level::Suite, dc, sn);
        for (int m = 0; m < spec.msbsPerSuite; ++m) {
            const std::string mn = sn + "/msb" + std::to_string(m);
            const NodeId msb = addNode(Level::Msb, suite, mn);
            for (int b = 0; b < spec.sbsPerMsb; ++b) {
                const std::string bn = mn + "/sb" + std::to_string(b);
                const NodeId sb = addNode(Level::Sb, msb, bn);
                for (int r = 0; r < spec.rppsPerSb; ++r) {
                    const std::string rn = bn + "/rpp" + std::to_string(r);
                    const NodeId rpp = addNode(Level::Rpp, sb, rn);
                    for (int k = 0; k < spec.racksPerRpp; ++k) {
                        addNode(Level::Rack, rpp,
                                rn + "/rack" + std::to_string(k));
                    }
                }
            }
        }
    }
}

NodeId
PowerTree::addNode(Level level, NodeId parent, const std::string &name)
{
    const NodeId id = nodes_.size();
    PowerNode n;
    n.id = id;
    n.level = level;
    n.parent = parent;
    n.name = name;
    nodes_.push_back(std::move(n));
    byLevel_[levelDepth(level)].push_back(id);
    if (parent != kNoNode)
        nodes_[parent].children.push_back(id);
    return id;
}

const PowerNode &
PowerTree::node(NodeId id) const
{
    SOSIM_REQUIRE(id < nodes_.size(), "PowerTree::node: id out of range");
    return nodes_[id];
}

const std::vector<NodeId> &
PowerTree::nodesAtLevel(Level level) const
{
    return byLevel_[levelDepth(level)];
}

std::vector<NodeId>
PowerTree::racksUnder(NodeId id) const
{
    SOSIM_REQUIRE(id < nodes_.size(),
                  "PowerTree::racksUnder: id out of range");
    std::vector<NodeId> out;
    std::vector<NodeId> stack{id};
    while (!stack.empty()) {
        const NodeId cur = stack.back();
        stack.pop_back();
        if (nodes_[cur].level == Level::Rack) {
            out.push_back(cur);
            continue;
        }
        for (const NodeId child : nodes_[cur].children)
            stack.push_back(child);
    }
    // Depth-first order above reverses sibling order; restore it for
    // deterministic, ascending-by-id output.
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<trace::TimeSeries>
PowerTree::aggregateTraces(
    const std::vector<trace::TimeSeries> &instance_traces,
    const Assignment &assignment) const
{
    return aggregateTraces(
        std::vector<trace::TraceView>(instance_traces.begin(),
                                      instance_traces.end()),
        assignment);
}

std::vector<trace::TimeSeries>
PowerTree::aggregateTraces(
    const std::vector<trace::TraceView> &instance_traces,
    const Assignment &assignment) const
{
    SOSIM_REQUIRE(assignment.size() == instance_traces.size(),
                  "aggregateTraces: assignment must cover every instance");
    SOSIM_REQUIRE(!instance_traces.empty(),
                  "aggregateTraces: need at least one instance");

    const auto &proto = instance_traces.front();
    for (const auto &t : instance_traces)
        SOSIM_REQUIRE(t.alignedWith(proto),
                      "aggregateTraces: misaligned instance traces");

    std::vector<trace::TimeSeries> node_traces(nodes_.size());
    for (auto &t : node_traces)
        t = trace::TimeSeries::zeros(proto.size(), proto.intervalMinutes());

    // Add every instance to its rack, then accumulate racks upwards.
    for (std::size_t i = 0; i < instance_traces.size(); ++i) {
        const NodeId rack = assignment[i];
        SOSIM_REQUIRE(rack < nodes_.size() &&
                          nodes_[rack].level == Level::Rack,
                      "aggregateTraces: assignment target is not a rack");
        double *dst = node_traces[rack].data();
        const trace::TraceView v = instance_traces[i];
        for (std::size_t s = 0; s < v.size(); ++s)
            dst[s] += v[s];
    }

    // Children always have larger ids than parents (construction order),
    // so a reverse id sweep accumulates leaves into the root correctly.
    for (NodeId id = nodes_.size(); id-- > 1;) {
        const NodeId parent = nodes_[id].parent;
        node_traces[parent] += node_traces[id];
    }
    return node_traces;
}

double
PowerTree::sumOfPeaks(const std::vector<trace::TimeSeries> &node_traces,
                      Level level) const
{
    SOSIM_REQUIRE(node_traces.size() == nodes_.size(),
                  "sumOfPeaks: need one trace per node");
    double total = 0.0;
    for (const NodeId id : nodesAtLevel(level))
        total += node_traces[id].peak();
    return total;
}

std::vector<std::vector<std::size_t>>
PowerTree::instancesPerRack(const Assignment &assignment) const
{
    std::vector<std::vector<std::size_t>> out(nodes_.size());
    for (std::size_t i = 0; i < assignment.size(); ++i) {
        const NodeId rack = assignment[i];
        SOSIM_REQUIRE(rack < nodes_.size() &&
                          nodes_[rack].level == Level::Rack,
                      "instancesPerRack: assignment target is not a rack");
        out[rack].push_back(i);
    }
    return out;
}

} // namespace sosim::power

#include "constraints.h"

#include <algorithm>
#include <limits>
#include <map>

#include "trace/kernels.h"
#include "util/error.h"

namespace sosim::core {

namespace {

/** RPP ancestor of a rack. */
power::NodeId
rppOf(const power::PowerTree &tree, power::NodeId rack)
{
    return tree.node(rack).parent;
}

/** (node, service) -> instance count for one level of grouping. */
using SpreadCounts = std::map<std::pair<power::NodeId, std::size_t>,
                              std::size_t>;

SpreadCounts
countSpread(const power::PowerTree &tree,
            const power::Assignment &assignment,
            const std::vector<std::size_t> &service_of, bool at_rpp)
{
    SpreadCounts counts;
    for (std::size_t i = 0; i < assignment.size(); ++i) {
        power::NodeId node = assignment[i];
        if (at_rpp)
            node = rppOf(tree, node);
        ++counts[{node, service_of[i]}];
    }
    return counts;
}

} // namespace

std::vector<ConstraintViolation>
findViolations(const power::PowerTree &tree,
               const power::Assignment &assignment,
               const std::vector<std::size_t> &service_of,
               const PlacementConstraints &constraints)
{
    SOSIM_REQUIRE(assignment.size() == service_of.size(),
                  "findViolations: size mismatch");
    std::vector<ConstraintViolation> out;

    if (constraints.maxServiceInstancesPerRack > 0) {
        for (const auto &[key, count] :
             countSpread(tree, assignment, service_of, false)) {
            if (count <= constraints.maxServiceInstancesPerRack)
                continue;
            ConstraintViolation v;
            v.kind = ConstraintViolation::Kind::RackSpread;
            v.subject = key.second;
            v.node = key.first;
            v.count = count;
            v.message = "service " + std::to_string(key.second) +
                        " has " + std::to_string(count) +
                        " instances on rack " + tree.node(key.first).name;
            out.push_back(std::move(v));
        }
    }
    if (constraints.maxServiceInstancesPerRpp > 0) {
        for (const auto &[key, count] :
             countSpread(tree, assignment, service_of, true)) {
            if (count <= constraints.maxServiceInstancesPerRpp)
                continue;
            ConstraintViolation v;
            v.kind = ConstraintViolation::Kind::RppSpread;
            v.subject = key.second;
            v.node = key.first;
            v.count = count;
            v.message = "service " + std::to_string(key.second) +
                        " has " + std::to_string(count) +
                        " instances under RPP " +
                        tree.node(key.first).name;
            out.push_back(std::move(v));
        }
    }
    for (const auto &[inst, rack] : constraints.pinned) {
        SOSIM_REQUIRE(inst < assignment.size(),
                      "findViolations: pinned instance out of range");
        if (assignment[inst] == rack)
            continue;
        ConstraintViolation v;
        v.kind = ConstraintViolation::Kind::Pin;
        v.subject = inst;
        v.node = rack;
        v.count = 0;
        v.message = "instance " + std::to_string(inst) +
                    " is pinned to rack " + tree.node(rack).name +
                    " but placed on " +
                    tree.node(assignment[inst]).name;
        out.push_back(std::move(v));
    }
    return out;
}

std::size_t
enforceConstraints(const power::PowerTree &tree,
                   power::Assignment &assignment,
                   const std::vector<std::size_t> &service_of,
                   const std::vector<trace::TimeSeries> &itraces,
                   const PlacementConstraints &constraints)
{
    SOSIM_REQUIRE(assignment.size() == service_of.size() &&
                      assignment.size() == itraces.size(),
                  "enforceConstraints: size mismatch");
    if (constraints.maxServiceInstancesPerRack > 0 &&
        constraints.maxServiceInstancesPerRpp > 0) {
        SOSIM_REQUIRE(constraints.maxServiceInstancesPerRpp >=
                          constraints.maxServiceInstancesPerRack,
                      "enforceConstraints: per-RPP limit must be >= "
                      "per-rack limit");
    }

    // Feasibility of the spread limits.
    if (constraints.maxServiceInstancesPerRack > 0) {
        std::map<std::size_t, std::size_t> per_service;
        for (const auto s : service_of)
            ++per_service[s];
        for (const auto &[s, count] : per_service) {
            SOSIM_REQUIRE(
                count <= constraints.maxServiceInstancesPerRack *
                             tree.racks().size(),
                "enforceConstraints: per-rack spread limit infeasible "
                "for service " + std::to_string(s));
        }
    }

    std::size_t moves = 0;

    // Pinned sets for quick lookup.
    std::map<std::size_t, power::NodeId> pin_of;
    for (const auto &[inst, rack] : constraints.pinned) {
        SOSIM_REQUIRE(rack < tree.nodeCount() &&
                          tree.node(rack).level == power::Level::Rack,
                      "enforceConstraints: pin target must be a rack");
        const auto [it, inserted] = pin_of.insert({inst, rack});
        SOSIM_REQUIRE(inserted || it->second == rack,
                      "enforceConstraints: conflicting pins for one "
                      "instance");
    }

    // 1. Apply pins, swapping with a non-pinned occupant when possible
    //    to preserve rack occupancy.
    for (const auto &[inst, rack] : pin_of) {
        if (assignment[inst] == rack)
            continue;
        const auto per_rack = tree.instancesPerRack(assignment);
        std::size_t partner = assignment.size();
        for (const auto occupant : per_rack[rack]) {
            if (!pin_of.count(occupant)) {
                partner = occupant;
                break;
            }
        }
        if (partner < assignment.size()) {
            assignment[partner] = assignment[inst];
            ++moves;
        }
        assignment[inst] = rack;
        ++moves;
    }

    if (constraints.maxServiceInstancesPerRack == 0 &&
        constraints.maxServiceInstancesPerRpp == 0) {
        return moves;
    }

    // 2. Spread repair.  Maintain per-rack aggregates and their peaks
    //    for damage-aware destination choice; a move rescans only the
    //    two racks it touches.
    std::vector<trace::TimeSeries> rack_agg(tree.nodeCount());
    for (const auto rack : tree.racks())
        rack_agg[rack] = trace::TimeSeries::zeros(
            itraces.front().size(), itraces.front().intervalMinutes());
    for (std::size_t i = 0; i < assignment.size(); ++i)
        rack_agg[assignment[i]] += itraces[i];
    std::vector<double> rack_peak(tree.nodeCount(), 0.0);
    for (const auto rack : tree.racks())
        rack_peak[rack] = rack_agg[rack].peak();

    auto rack_count = countSpread(tree, assignment, service_of, false);
    auto rpp_count = countSpread(tree, assignment, service_of, true);

    auto rack_ok = [&](power::NodeId rack, std::size_t service) {
        if (constraints.maxServiceInstancesPerRack == 0)
            return true;
        return rack_count[{rack, service}] <
               constraints.maxServiceInstancesPerRack;
    };
    auto rpp_ok = [&](power::NodeId rack, std::size_t service) {
        if (constraints.maxServiceInstancesPerRpp == 0)
            return true;
        return rpp_count[{rppOf(tree, rack), service}] <
               constraints.maxServiceInstancesPerRpp;
    };
    auto move_instance = [&](std::size_t inst, power::NodeId dst) {
        const power::NodeId src = assignment[inst];
        const std::size_t service = service_of[inst];
        assignment[inst] = dst;
        rack_agg[src] -= itraces[inst];
        rack_agg[dst] += itraces[inst];
        rack_peak[src] = rack_agg[src].peak();
        rack_peak[dst] = rack_agg[dst].peak();
        --rack_count[{src, service}];
        ++rack_count[{dst, service}];
        --rpp_count[{rppOf(tree, src), service}];
        ++rpp_count[{rppOf(tree, dst), service}];
        ++moves;
    };

    // Iterate until clean; each pass moves every surplus instance of
    // every violated (rack, service) pair to its least-damaging
    // feasible destination.
    for (int pass = 0; pass < 64; ++pass) {
        const auto violations =
            findViolations(tree, assignment, service_of, constraints);
        bool any_spread = false;
        for (const auto &v : violations) {
            if (v.kind == ConstraintViolation::Kind::Pin)
                continue;
            any_spread = true;
            // Instances of the violating service under the node.
            std::vector<std::size_t> members;
            for (std::size_t i = 0; i < assignment.size(); ++i) {
                if (service_of[i] != v.subject || pin_of.count(i))
                    continue;
                const bool under =
                    v.kind == ConstraintViolation::Kind::RackSpread
                        ? assignment[i] == v.node
                        : rppOf(tree, assignment[i]) == v.node;
                if (under)
                    members.push_back(i);
            }
            const std::size_t limit =
                v.kind == ConstraintViolation::Kind::RackSpread
                    ? constraints.maxServiceInstancesPerRack
                    : constraints.maxServiceInstancesPerRpp;
            if (members.size() <= limit)
                continue; // Repaired by an earlier move this pass.

            const std::size_t surplus = members.size() - limit;
            for (std::size_t k = 0; k < surplus; ++k) {
                const std::size_t inst = members[k];
                // Least-damaging feasible destination rack.
                double best_damage =
                    std::numeric_limits<double>::max();
                power::NodeId best_rack = power::kNoNode;
                for (const auto rack : tree.racks()) {
                    if (rack == assignment[inst])
                        continue;
                    if (v.kind ==
                            ConstraintViolation::Kind::RppSpread &&
                        rppOf(tree, rack) == v.node) {
                        continue;
                    }
                    if (!rack_ok(rack, v.subject) ||
                        !rpp_ok(rack, v.subject)) {
                        continue;
                    }
                    const double damage =
                        trace::peakOfSum(rack_agg[rack], itraces[inst]) -
                        rack_peak[rack];
                    if (damage < best_damage) {
                        best_damage = damage;
                        best_rack = rack;
                    }
                }
                SOSIM_REQUIRE(best_rack != power::kNoNode,
                              "enforceConstraints: no feasible "
                              "destination (limits too tight)");
                move_instance(inst, best_rack);
            }
        }
        if (!any_spread)
            break;
    }

    SOSIM_ASSERT(
        [&] {
            for (const auto &v : findViolations(tree, assignment,
                                                service_of, constraints))
                if (v.kind != ConstraintViolation::Kind::Pin)
                    return false;
            return true;
        }(),
        "enforceConstraints: repair failed to converge");
    return moves;
}

} // namespace sosim::core

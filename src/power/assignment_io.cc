#include "assignment_io.h"

#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/error.h"
#include "util/parse.h"

namespace sosim::power {

void
writeAssignmentCsv(std::ostream &os, const PowerTree &tree,
                   const Assignment &assignment)
{
    SOSIM_REQUIRE(!assignment.empty(),
                  "writeAssignmentCsv: empty assignment");
    os << "instance,rack\n";
    for (std::size_t i = 0; i < assignment.size(); ++i) {
        const NodeId rack = assignment[i];
        SOSIM_REQUIRE(rack < tree.nodeCount() &&
                          tree.node(rack).level == Level::Rack,
                      "writeAssignmentCsv: entry is not a rack");
        os << i << ',' << tree.node(rack).name << '\n';
    }
}

Assignment
readAssignmentCsv(std::istream &is, const PowerTree &tree)
{
    // Every error names the offending line (1-based, counting the
    // header), as trace::readCsv does.
    std::map<std::string, NodeId> by_name;
    for (const auto rack : tree.racks())
        by_name[tree.node(rack).name] = rack;

    std::string line;
    SOSIM_REQUIRE(static_cast<bool>(std::getline(is, line)) &&
                      line == "instance,rack",
                  "readAssignmentCsv: missing 'instance,rack' header at "
                  "line 1");

    // Instance id -> (rack, line it was read from).
    std::map<std::size_t, std::pair<NodeId, std::size_t>> entries;
    std::size_t line_no = 1;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty())
            continue;
        const std::string at = " at line " + std::to_string(line_no);
        const auto comma = line.find(',');
        SOSIM_REQUIRE(comma != std::string::npos,
                      "readAssignmentCsv: malformed row '" + line + "'" +
                          at);
        const auto instance = util::parseNumber<std::size_t>(
            line.substr(0, comma), "readAssignmentCsv: instance id" + at);
        const std::string rack_name = line.substr(comma + 1);
        const auto it = by_name.find(rack_name);
        SOSIM_REQUIRE(it != by_name.end(),
                      "readAssignmentCsv: unknown rack '" + rack_name +
                          "'" + at);
        SOSIM_REQUIRE(
            entries.emplace(instance, std::pair{it->second, line_no})
                .second,
            "readAssignmentCsv: duplicate instance " +
                std::to_string(instance) + at);
    }
    SOSIM_REQUIRE(!entries.empty(), "readAssignmentCsv: no rows after line " +
                                        std::to_string(line_no));

    Assignment assignment(entries.size(), kNoNode);
    for (const auto &[instance, entry] : entries) {
        SOSIM_REQUIRE(instance < assignment.size(),
                      "readAssignmentCsv: instance id " +
                          std::to_string(instance) + " at line " +
                          std::to_string(entry.second) +
                          " breaks the dense range 0.." +
                          std::to_string(assignment.size() - 1));
        assignment[instance] = entry.first;
    }
    return assignment;
}

void
writeAssignmentCsvFile(const std::string &path, const PowerTree &tree,
                       const Assignment &assignment)
{
    std::ofstream os(path);
    SOSIM_REQUIRE(os.good(), "writeAssignmentCsvFile: cannot open " + path);
    writeAssignmentCsv(os, tree, assignment);
    SOSIM_REQUIRE(os.good(),
                  "writeAssignmentCsvFile: write failed for " + path);
}

Assignment
readAssignmentCsvFile(const std::string &path, const PowerTree &tree)
{
    std::ifstream is(path);
    SOSIM_REQUIRE(is.good(), "readAssignmentCsvFile: cannot open " + path);
    return readAssignmentCsv(is, tree);
}

} // namespace sosim::power

#include "io.h"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.h"
#include "util/parse.h"

namespace sosim::trace {

void
writeCsv(std::ostream &os, const TraceBundle &bundle)
{
    SOSIM_REQUIRE(!bundle.traces.empty(), "writeCsv: empty bundle");
    SOSIM_REQUIRE(bundle.names.size() == bundle.traces.size(),
                  "writeCsv: one name per trace required");
    const auto &proto = bundle.traces.front();
    for (const auto &t : bundle.traces)
        SOSIM_REQUIRE(t.alignedWith(proto), "writeCsv: misaligned traces");
    for (const auto &name : bundle.names)
        SOSIM_REQUIRE(name.find(',') == std::string::npos &&
                          name.find('\n') == std::string::npos,
                      "writeCsv: names must not contain ',' or newline");

    os << "# interval_minutes=" << proto.intervalMinutes() << '\n';
    for (std::size_t c = 0; c < bundle.names.size(); ++c) {
        if (c)
            os << ',';
        os << bundle.names[c];
    }
    os << '\n';
    os.precision(10);
    for (std::size_t t = 0; t < proto.size(); ++t) {
        for (std::size_t c = 0; c < bundle.traces.size(); ++c) {
            if (c)
                os << ',';
            os << bundle.traces[c][t];
        }
        os << '\n';
    }
}

namespace {

/** Drop a trailing '\r': files written on Windows (or streamed through a
 *  CRLF transport) read line-by-line as "...\r" under std::getline. */
void
stripCr(std::string &line)
{
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
}

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream ss(line);
    while (std::getline(ss, cell, ','))
        cells.push_back(cell);
    if (!line.empty() && line.back() == ',')
        cells.push_back("");
    return cells;
}

} // namespace

TraceBundle
readCsv(std::istream &is)
{
    std::string line;

    // Header comment with the interval.
    SOSIM_REQUIRE(static_cast<bool>(std::getline(is, line)),
                  "readCsv: empty input");
    stripCr(line);
    const std::string prefix = "# interval_minutes=";
    SOSIM_REQUIRE(line.rfind(prefix, 0) == 0,
                  "readCsv: missing '# interval_minutes=' header");
    const int interval = util::parseNumber<int>(
        line.substr(prefix.size()), "readCsv: interval header");
    SOSIM_REQUIRE(interval >= 1, "readCsv: interval must be >= 1");

    // Column names.
    SOSIM_REQUIRE(static_cast<bool>(std::getline(is, line)),
                  "readCsv: missing column-name row");
    stripCr(line);
    TraceBundle bundle;
    bundle.names = splitCsvLine(line);
    SOSIM_REQUIRE(!bundle.names.empty(), "readCsv: no columns");

    // Body.  Errors name the offending line (1-based, counting the
    // header) and column so a bad row in a million-line telemetry dump
    // can actually be found.
    std::vector<std::vector<double>> columns(bundle.names.size());
    std::size_t line_no = 2; // Header and name rows already consumed.
    while (std::getline(is, line)) {
        ++line_no;
        stripCr(line);
        if (line.empty())
            continue;
        const auto cells = splitCsvLine(line);
        SOSIM_REQUIRE(cells.size() == bundle.names.size(),
                      "readCsv: ragged row at line " +
                          std::to_string(line_no) + ": expected " +
                          std::to_string(bundle.names.size()) +
                          " cells, got " + std::to_string(cells.size()));
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const std::string where = "line " + std::to_string(line_no) +
                                      ", column '" + bundle.names[c] +
                                      "'";
            double v = 0.0;
            try {
                std::size_t used = 0;
                v = std::stod(cells[c], &used);
                SOSIM_REQUIRE(used == cells[c].size(),
                              "readCsv: trailing junk in numeric cell '" +
                                  cells[c] + "' at " + where);
            } catch (const util::FatalError &) {
                throw;
            } catch (const std::exception &) {
                SOSIM_REQUIRE(false, "readCsv: non-numeric cell '" +
                                         cells[c] + "' at " + where);
            }
            // stod happily parses "nan", "inf" and friends; a power
            // sample must be a real measurement.  Degraded telemetry is
            // modeled explicitly (fault::injectTraceFaults produces the
            // NaN gaps, trace::repairAll heals them) — it does not enter
            // through the interchange format.
            SOSIM_REQUIRE(std::isfinite(v),
                          "readCsv: non-finite sample '" + cells[c] +
                              "' at " + where);
            columns[c].push_back(v);
        }
    }
    SOSIM_REQUIRE(!columns.front().empty(), "readCsv: no data rows");

    bundle.traces.reserve(columns.size());
    for (auto &col : columns)
        bundle.traces.emplace_back(std::move(col), interval);
    return bundle;
}

void
writeCsvFile(const std::string &path, const TraceBundle &bundle)
{
    std::ofstream os(path);
    SOSIM_REQUIRE(os.good(), "writeCsvFile: cannot open " + path);
    writeCsv(os, bundle);
    SOSIM_REQUIRE(os.good(), "writeCsvFile: write failed for " + path);
}

TraceBundle
readCsvFile(const std::string &path)
{
    std::ifstream is(path);
    SOSIM_REQUIRE(is.good(), "readCsvFile: cannot open " + path);
    return readCsv(is);
}

} // namespace sosim::trace

#include "io.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>

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

/** Split `line` at every ',' into `cells`, views into `line`; an empty
 *  line has no cells. */
void
splitCsvLine(std::string_view line, std::vector<std::string_view> &cells)
{
    cells.clear();
    if (line.empty())
        return;
    for (std::size_t start = 0;;) {
        const std::size_t comma = line.find(',', start);
        cells.push_back(line.substr(start, comma - start));
        if (comma == std::string_view::npos)
            return;
        start = comma + 1;
    }
}

} // namespace

TraceBundle
readCsv(std::istream &is)
{
    // Every error names the offending line (1-based, counting the
    // header), and body errors the column too, so a bad row in a
    // million-line telemetry dump can actually be found.
    std::string line;

    // Header comment with the interval.
    SOSIM_REQUIRE(static_cast<bool>(std::getline(is, line)),
                  "readCsv: empty input at line 1");
    stripCr(line);
    const std::string prefix = "# interval_minutes=";
    SOSIM_REQUIRE(line.rfind(prefix, 0) == 0,
                  "readCsv: missing '# interval_minutes=' header at line 1");
    const int interval = util::parseNumber<int>(
        line.substr(prefix.size()), "readCsv: interval header at line 1");
    SOSIM_REQUIRE(interval >= 1, "readCsv: interval must be >= 1 at line 1");

    // Column names.
    SOSIM_REQUIRE(static_cast<bool>(std::getline(is, line)),
                  "readCsv: missing column-name row at line 2");
    stripCr(line);
    TraceBundle bundle;
    std::vector<std::string_view> cells;
    splitCsvLine(line, cells);
    bundle.names.assign(cells.begin(), cells.end());
    SOSIM_REQUIRE(!bundle.names.empty(), "readCsv: no columns at line 2");

    // Body.
    std::vector<std::vector<double>> columns(bundle.names.size());
    std::size_t line_no = 2; // Header and name rows already consumed.
    while (std::getline(is, line)) {
        ++line_no;
        stripCr(line);
        if (line.empty())
            continue;
        splitCsvLine(line, cells);
        SOSIM_REQUIRE(cells.size() == bundle.names.size(),
                      "readCsv: ragged row at line " +
                          std::to_string(line_no) + ": expected " +
                          std::to_string(bundle.names.size()) +
                          " cells, got " + std::to_string(cells.size()));
        for (std::size_t c = 0; c < cells.size(); ++c) {
            // The whole cell must be one finite decimal number: no hex,
            // no leading space or '+', no overflow, and no "nan" or
            // "inf" — degraded telemetry is modeled explicitly
            // (fault::injectTraceFaults produces the NaN gaps,
            // trace::repairAll heals them), not through the interchange
            // format.
            // The tag is built only for a refused cell: building it for
            // every cell would double the reader's time.
            const auto v = util::tryParseNumber<double>(cells[c]);
            if (!v)
                util::rejectNumber<double>(
                    cells[c], "readCsv: line " + std::to_string(line_no) +
                                  ", column '" + bundle.names[c] + "'");
            columns[c].push_back(*v);
        }
    }
    SOSIM_REQUIRE(!columns.front().empty(),
                  "readCsv: no data rows after line " +
                      std::to_string(line_no));

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

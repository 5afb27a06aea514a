/**
 * @file
 * Tests for trace CSV I/O and assignment CSV I/O (round trips and
 * malformed-input rejection).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "power/assignment_io.h"
#include "trace/io.h"
#include "util/error.h"

namespace {

using namespace sosim;
using sosim::trace::TimeSeries;
using sosim::trace::TraceBundle;
using sosim::util::FatalError;

TraceBundle
sampleBundle()
{
    TraceBundle bundle;
    bundle.names = {"web-0", "db-0"};
    bundle.traces = {TimeSeries({0.5, 0.75, 1.0}, 5),
                     TimeSeries({0.25, 0.5, 0.125}, 5)};
    return bundle;
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    const auto bundle = sampleBundle();
    std::stringstream ss;
    trace::writeCsv(ss, bundle);
    const auto parsed = trace::readCsv(ss);
    ASSERT_EQ(parsed.names, bundle.names);
    ASSERT_EQ(parsed.traces.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(parsed.traces[c].intervalMinutes(), 5);
        ASSERT_EQ(parsed.traces[c].size(), 3u);
        for (std::size_t t = 0; t < 3; ++t)
            EXPECT_DOUBLE_EQ(parsed.traces[c][t], bundle.traces[c][t]);
    }
}

TEST(TraceIo, WriteValidatesBundle)
{
    std::stringstream ss;
    EXPECT_THROW(trace::writeCsv(ss, TraceBundle{}), FatalError);

    TraceBundle mismatch = sampleBundle();
    mismatch.names.pop_back();
    EXPECT_THROW(trace::writeCsv(ss, mismatch), FatalError);

    TraceBundle ragged = sampleBundle();
    ragged.traces[1] = TimeSeries({1.0}, 5);
    EXPECT_THROW(trace::writeCsv(ss, ragged), FatalError);

    TraceBundle bad_name = sampleBundle();
    bad_name.names[0] = "has,comma";
    EXPECT_THROW(trace::writeCsv(ss, bad_name), FatalError);
}

TEST(TraceIo, ReadRejectsMalformedInput)
{
    auto parse = [](const std::string &text) {
        std::istringstream is(text);
        return trace::readCsv(is);
    };
    EXPECT_THROW(parse(""), FatalError);
    EXPECT_THROW(parse("no-header\na\n1\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=abc\na\n1\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=0\na\n1\n"), FatalError);
    // The interval must be the whole rest of the header line.
    EXPECT_THROW(parse("# interval_minutes=60abc\na\n1\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=60.5\na\n1\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=5\na,b\n1\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=5\na\nnot-a-number\n"),
                 FatalError);
    EXPECT_THROW(parse("# interval_minutes=5\na\n1.5x\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=5\na\n"), FatalError);
}

TEST(TraceIo, ReadRejectsNonFiniteLiterals)
{
    auto parse = [](const std::string &text) {
        std::istringstream is(text);
        return trace::readCsv(is);
    };
    // stod accepts all of these spellings; the trace format does not —
    // degraded telemetry enters through the fault layer, not the CSV.
    EXPECT_THROW(parse("# interval_minutes=5\na\nnan\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=5\na\nNaN\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=5\na\n-nan\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=5\na\ninf\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=5\na\n-inf\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=5\na\nInfinity\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=5\na,b\n1.0,nan\n"), FatalError);
    EXPECT_THROW(parse("# interval_minutes=5\na\n1e999\n"), FatalError);
}

TEST(TraceIo, MalformedRowErrorsNameLineAndColumn)
{
    auto message = [](const std::string &text) -> std::string {
        std::istringstream is(text);
        try {
            trace::readCsv(is);
        } catch (const FatalError &e) {
            return e.what();
        }
        return "";
    };
    // Data starts at physical line 3; the bad cell is on line 4.
    const auto ragged =
        message("# interval_minutes=5\na,b\n1,2\n1,2,3\n");
    EXPECT_NE(ragged.find("line 4"), std::string::npos) << ragged;
    EXPECT_NE(ragged.find("got 3"), std::string::npos) << ragged;

    const auto bad_cell =
        message("# interval_minutes=5\na,b\n1,2\n3,oops\n");
    EXPECT_NE(bad_cell.find("line 4"), std::string::npos) << bad_cell;
    EXPECT_NE(bad_cell.find("column 'b'"), std::string::npos) << bad_cell;
    EXPECT_NE(bad_cell.find("oops"), std::string::npos) << bad_cell;

    const auto non_finite =
        message("# interval_minutes=5\na,b\nnan,2\n");
    EXPECT_NE(non_finite.find("line 3"), std::string::npos) << non_finite;
    EXPECT_NE(non_finite.find("column 'a'"), std::string::npos)
        << non_finite;
}

TEST(TraceIo, SkipsBlankLines)
{
    std::istringstream is(
        "# interval_minutes=10\nweb\n0.5\n\n0.75\n");
    const auto bundle = trace::readCsv(is);
    ASSERT_EQ(bundle.traces.size(), 1u);
    EXPECT_EQ(bundle.traces[0].size(), 2u);
}

// The next four tests cover streaming-shaped inputs: telemetry dumps
// arrive truncated (a tail being appended), CRLF-terminated (Windows
// exporters), blank-line-padded, and occasionally enormous.

TEST(TraceIo, AcceptsTruncatedFinalLine)
{
    // No trailing newline after the last row — exactly what reading a
    // file mid-append looks like.  The complete rows must all parse.
    std::istringstream is("# interval_minutes=5\na,b\n1,2\n3,4");
    const auto bundle = trace::readCsv(is);
    ASSERT_EQ(bundle.traces.size(), 2u);
    ASSERT_EQ(bundle.traces[0].size(), 2u);
    EXPECT_DOUBLE_EQ(bundle.traces[0][1], 3.0);
    EXPECT_DOUBLE_EQ(bundle.traces[1][1], 4.0);
}

TEST(TraceIo, AcceptsCrlfLineEndings)
{
    std::istringstream is(
        "# interval_minutes=5\r\na,b\r\n1,2\r\n3,4\r\n");
    const auto bundle = trace::readCsv(is);
    ASSERT_EQ(bundle.names.size(), 2u);
    EXPECT_EQ(bundle.names[1], "b");
    ASSERT_EQ(bundle.traces[0].size(), 2u);
    EXPECT_DOUBLE_EQ(bundle.traces[1][0], 2.0);
    EXPECT_DOUBLE_EQ(bundle.traces[1][1], 4.0);
}

TEST(TraceIo, SkipsInterleavedBlankLines)
{
    // Blank lines between every data row, in both LF and CRLF flavors
    // (a bare "\r\n" body line strips down to empty and is skipped).
    std::istringstream is(
        "# interval_minutes=5\na,b\n\n1,2\n\r\n3,4\n\n\n5,6\n");
    const auto bundle = trace::readCsv(is);
    ASSERT_EQ(bundle.traces[0].size(), 3u);
    EXPECT_DOUBLE_EQ(bundle.traces[0][2], 5.0);
    EXPECT_DOUBLE_EQ(bundle.traces[1][2], 6.0);
}

TEST(TraceIo, ParsesSingleRowOverOneMegabyte)
{
    // One >1 MB row: many columns, one sample each — the widest shape a
    // streaming exporter produces.  Values are a deterministic pattern
    // so every parsed cell can be verified.
    const std::size_t columns = 120000;
    std::string header = "# interval_minutes=1\n";
    std::string names, row;
    for (std::size_t c = 0; c < columns; ++c) {
        if (c) {
            names += ',';
            row += ',';
        }
        names += "i" + std::to_string(c);
        row += std::to_string(double(c % 97) * 0.5);
    }
    const std::string text = header + names + "\n" + row + "\n";
    ASSERT_GT(text.size(), std::size_t{1} << 20);
    std::istringstream is(text);
    const auto bundle = trace::readCsv(is);
    ASSERT_EQ(bundle.traces.size(), columns);
    for (std::size_t c = 0; c < columns; c += 997) {
        ASSERT_EQ(bundle.traces[c].size(), 1u);
        EXPECT_DOUBLE_EQ(bundle.traces[c][0], double(c % 97) * 0.5);
    }
    EXPECT_EQ(bundle.names[columns - 1],
              "i" + std::to_string(columns - 1));
}

TEST(TraceIo, FileRoundTrip)
{
    const std::string path = testing::TempDir() + "sosim_traces.csv";
    trace::writeCsvFile(path, sampleBundle());
    const auto parsed = trace::readCsvFile(path);
    EXPECT_EQ(parsed.names, sampleBundle().names);
    EXPECT_THROW(trace::readCsvFile("/nonexistent/nope.csv"), FatalError);
}

power::TopologySpec
tinyTopology()
{
    power::TopologySpec spec;
    spec.suites = 1;
    spec.msbsPerSuite = 1;
    spec.sbsPerMsb = 1;
    spec.rppsPerSb = 2;
    spec.racksPerRpp = 2;
    return spec;
}

TEST(AssignmentIo, RoundTrip)
{
    power::PowerTree tree(tinyTopology());
    power::Assignment assignment{tree.racks()[2], tree.racks()[0],
                                 tree.racks()[3]};
    std::stringstream ss;
    power::writeAssignmentCsv(ss, tree, assignment);
    const auto parsed = power::readAssignmentCsv(ss, tree);
    EXPECT_EQ(parsed, assignment);
}

TEST(AssignmentIo, WriteValidates)
{
    power::PowerTree tree(tinyTopology());
    std::stringstream ss;
    EXPECT_THROW(power::writeAssignmentCsv(ss, tree, {}), FatalError);
    power::Assignment bad{tree.root()};
    EXPECT_THROW(power::writeAssignmentCsv(ss, tree, bad), FatalError);
}

TEST(AssignmentIo, ReadRejectsMalformedInput)
{
    power::PowerTree tree(tinyTopology());
    auto parse = [&](const std::string &text) {
        std::istringstream is(text);
        return power::readAssignmentCsv(is, tree);
    };
    EXPECT_THROW(parse(""), FatalError);
    EXPECT_THROW(parse("wrong,header\n"), FatalError);
    EXPECT_THROW(parse("instance,rack\n"), FatalError); // No rows.
    EXPECT_THROW(parse("instance,rack\nabc,suite0/msb0/sb0/rpp0/rack0\n"),
                 FatalError);
    // The instance id must be the whole first cell.
    EXPECT_THROW(parse("instance,rack\n0junk,suite0/msb0/sb0/rpp0/rack0\n"),
                 FatalError);
    EXPECT_THROW(parse("instance,rack\n+0,suite0/msb0/sb0/rpp0/rack0\n"),
                 FatalError);
    EXPECT_THROW(parse("instance,rack\n0,not/a/rack\n"), FatalError);
    // Duplicate instance.
    EXPECT_THROW(parse("instance,rack\n0,suite0/msb0/sb0/rpp0/rack0\n"
                       "0,suite0/msb0/sb0/rpp0/rack1\n"),
                 FatalError);
    // Sparse ids (0 and 2 but no 1).
    EXPECT_THROW(parse("instance,rack\n0,suite0/msb0/sb0/rpp0/rack0\n"
                       "2,suite0/msb0/sb0/rpp0/rack1\n"),
                 FatalError);
}

TEST(AssignmentIo, OutOfOrderRowsAccepted)
{
    power::PowerTree tree(tinyTopology());
    std::istringstream is("instance,rack\n"
                          "1,suite0/msb0/sb0/rpp0/rack1\n"
                          "0,suite0/msb0/sb0/rpp1/rack0\n");
    const auto parsed = power::readAssignmentCsv(is, tree);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(tree.node(parsed[0]).name, "suite0/msb0/sb0/rpp1/rack0");
    EXPECT_EQ(tree.node(parsed[1]).name, "suite0/msb0/sb0/rpp0/rack1");
}

TEST(AssignmentIo, FileRoundTrip)
{
    power::PowerTree tree(tinyTopology());
    power::Assignment assignment{tree.racks()[1], tree.racks()[1]};
    const std::string path = testing::TempDir() + "sosim_assignment.csv";
    power::writeAssignmentCsvFile(path, tree, assignment);
    EXPECT_EQ(power::readAssignmentCsvFile(path, tree), assignment);
}

} // namespace

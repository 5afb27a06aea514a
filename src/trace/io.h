#ifndef SOSIM_TRACE_IO_H
#define SOSIM_TRACE_IO_H

/**
 * @file
 * CSV import/export of power traces.
 *
 * Downstream users bring their own telemetry; this module defines the
 * interchange format the library reads and writes:
 *
 *   # interval_minutes=5
 *   name_a,name_b,name_c
 *   0.41,0.52,0.77
 *   0.42,0.50,0.80
 *   ...
 *
 * One column per instance, one row per timestamp.  The leading comment
 * carries the sampling interval.
 */

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/time_series.h"

namespace sosim::trace {

/** A named bundle of aligned traces (columns of one CSV file). */
struct TraceBundle {
    std::vector<std::string> names;
    std::vector<TimeSeries> traces;
};

/**
 * Write aligned traces as CSV.
 *
 * @param os     Output stream.
 * @param bundle Traces to write; all must be aligned and the name count
 *               must match the trace count.
 */
void writeCsv(std::ostream &os, const TraceBundle &bundle);

/**
 * Parse a CSV trace bundle.
 *
 * @param is Input stream in the format produced by writeCsv.
 * @return The parsed bundle.
 * @throws util::FatalError on malformed input (missing header, ragged
 *         rows, non-numeric cells, non-finite literals such as "nan" or
 *         "inf", empty body); the message names the offending line,
 *         and for a body cell its column too.  Degraded telemetry is
 *         modeled explicitly via src/fault + trace::repairAll, never
 *         smuggled in as NaN cells.
 */
TraceBundle readCsv(std::istream &is);

/** Convenience wrapper: write a bundle to a file path. */
void writeCsvFile(const std::string &path, const TraceBundle &bundle);

/** Convenience wrapper: read a bundle from a file path. */
TraceBundle readCsvFile(const std::string &path);

} // namespace sosim::trace

#endif // SOSIM_TRACE_IO_H

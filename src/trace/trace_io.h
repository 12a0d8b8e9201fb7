/**
 * @file
 * CSV persistence for traces.
 *
 * A trace file is a single CSV with two record kinds, so users can plug
 * real production traces into the harness:
 *
 *   F,<id>,<name>,<memory_mb>,<cold_start_us>,<runtime>,<median_exec_us>
 *   R,<function_id>,<arrival_us>,<exec_us>
 *
 * Lines starting with '#' are comments.  Function records must precede
 * the request records that reference them.  A function record with an
 * empty name is named `fn<id>`, as Trace::addFunction names it.
 *
 * readTrace(), readTraceFile() and convertTraceCsvToImage() share one
 * line-by-line scanner: they accept the same files, name functions
 * alike and fail alike, and a read error is never a shorter trace.
 *
 * The text format is the interchange format; for repeated replay of
 * large traces, pre-convert to the binary `.ctrb` image (trace_image.h)
 * and mmap it instead of re-parsing.
 */

#ifndef CIDRE_TRACE_TRACE_IO_H
#define CIDRE_TRACE_TRACE_IO_H

#include <iosfwd>
#include <string>

#include "trace/trace.h"
#include "trace/trace_view.h"

namespace cidre::trace {

/** Serialize a sealed workload to a stream. */
void writeTrace(TraceView workload, std::ostream &out);

/** Serialize a sealed workload to a file; throws std::runtime_error on I/O. */
void writeTraceFile(TraceView workload, const std::string &path);

/**
 * Parse a trace from a stream; returns a sealed trace.
 * Throws std::runtime_error with the offending line number on bad input
 * or on a read error.
 */
Trace readTrace(std::istream &in);

/** Parse a trace from a file (readTrace() on the opened file). */
Trace readTraceFile(const std::string &path);

/** What convertTraceCsvToImage() wrote (reporting, without a re-open). */
struct CsvConvertStats
{
    std::uint64_t requests = 0;
    std::uint64_t functions = 0;
};

/**
 * Convert a CSV trace file straight into a `.ctrb` image through the
 * streaming writer: two passes of the scanner (count/validate, then
 * append), so peak memory is bounded by the function table — never by
 * the request count.  Only a CSV whose requests are not already
 * arrival-sorted is read into a Trace first (readTrace, seal, write).
 * On any error nothing is published at @p image_path.
 */
CsvConvertStats convertTraceCsvToImage(const std::string &csv_path,
                                       const std::string &image_path);

} // namespace cidre::trace

#endif // CIDRE_TRACE_TRACE_IO_H

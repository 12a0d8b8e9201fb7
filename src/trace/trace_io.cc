#include "trace/trace_io.h"

#include <array>
#include <charconv>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "trace/trace_image.h"

namespace cidre::trace {

namespace {

[[noreturn]] void
fail(std::size_t line_no, const std::string &why)
{
    throw std::runtime_error("trace parse error at line " +
                             std::to_string(line_no) + ": " + why);
}

std::int64_t
parseInt(std::string_view text, std::size_t line_no)
{
    std::int64_t value = 0;
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, value);
    if (ec != std::errc{})
        fail(line_no, "bad number '" + std::string(text) + "'");
    if (ptr != last)
        fail(line_no,
             "trailing characters in number '" + std::string(text) + "'");
    return value;
}

/**
 * Split @p line at commas into @p fields (in place, zero copies).
 * Returns the true field count, which may exceed fields.size(); the
 * overflow fields are dropped and the count alone flags the error.
 */
std::size_t
splitFields(std::string_view line, std::array<std::string_view, 8> &fields)
{
    std::size_t count = 0;
    std::size_t start = 0;
    for (;;) {
        const auto comma = line.find(',', start);
        const auto field = comma == std::string_view::npos
            ? line.substr(start)
            : line.substr(start, comma - start);
        if (count < fields.size())
            fields[count] = field;
        ++count;
        if (comma == std::string_view::npos)
            return count;
        start = comma + 1;
    }
}

/**
 * The CSV scanner: one getline-driven pass over a trace.  @p on_function
 * receives each function record's profile, in id order; @p on_request
 * each request row, in file order.  Errors name the offending line, and
 * a stream that ends in a read error throws rather than passing for the
 * end of the file.
 */
template <typename FunctionFn, typename RequestFn>
void
scanCsvTrace(std::istream &in, FunctionFn &&on_function,
             RequestFn &&on_request)
{
    std::array<std::string_view, 8> fields;
    std::string line;
    std::size_t line_no = 0;
    std::int64_t function_count = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::string_view view(line);
        if (!view.empty() && view.back() == '\r')
            view.remove_suffix(1);
        if (view.empty() || view.front() == '#')
            continue;
        const auto count = splitFields(view, fields);
        if (fields[0] == "F") {
            if (count != 7)
                fail(line_no, "function record needs 7 fields");
            FunctionProfile fn;
            fn.name = std::string(fields[2]);
            fn.memory_mb = parseInt(fields[3], line_no);
            fn.cold_start_us = parseInt(fields[4], line_no);
            try {
                fn.runtime = runtimeFromName(std::string(fields[5]));
            } catch (const std::invalid_argument &e) {
                fail(line_no, e.what());
            }
            fn.median_exec_us = parseInt(fields[6], line_no);
            if (parseInt(fields[1], line_no) != function_count)
                fail(line_no, "function ids must be dense and in order");
            ++function_count;
            on_function(std::move(fn));
        } else if (fields[0] == "R") {
            if (count != 4)
                fail(line_no, "request record needs 4 fields");
            const auto func = parseInt(fields[1], line_no);
            if (func < 0 || func >= function_count)
                fail(line_no, "request references unknown function");
            const auto arrival_us = parseInt(fields[2], line_no);
            const auto exec_us = parseInt(fields[3], line_no);
            on_request(static_cast<FunctionId>(func), arrival_us, exec_us);
        } else {
            fail(line_no,
                 "unknown record kind '" + std::string(fields[0]) + "'");
        }
    }
    if (in.bad()) {
        throw std::runtime_error("trace read error after line " +
                                 std::to_string(line_no));
    }
}

std::ifstream
openCsv(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("readTraceFile: cannot open " + path);
    return in;
}

} // namespace

void
writeTrace(TraceView workload, std::ostream &out)
{
    out << "# cidre trace v1: " << workload.functionCount()
        << " functions, " << workload.requestCount() << " requests\n";
    for (const auto &fn : workload.functions()) {
        out << "F," << fn.id << ',' << fn.name << ',' << fn.memory_mb << ','
            << fn.cold_start_us << ',' << runtimeName(fn.runtime) << ','
            << fn.median_exec_us << '\n';
    }
    for (std::uint64_t i = 0; i < workload.requestCount(); ++i) {
        out << "R," << workload.requestFunction(i) << ','
            << workload.arrivalUs(i) << ',' << workload.execUs(i) << '\n';
    }
}

void
writeTraceFile(TraceView workload, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("writeTraceFile: cannot open " + path);
    writeTrace(workload, out);
    if (!out)
        throw std::runtime_error("writeTraceFile: write failed for " + path);
}

Trace
readTrace(std::istream &in)
{
    Trace trace;
    scanCsvTrace(
        in, [&trace](FunctionProfile fn) { trace.addFunction(std::move(fn)); },
        [&trace](FunctionId function, sim::SimTime arrival_us,
                 sim::SimTime exec_us) {
            trace.addRequest(function, arrival_us, exec_us);
        });
    trace.seal();
    return trace;
}

Trace
readTraceFile(const std::string &path)
{
    std::ifstream in = openCsv(path);
    return readTrace(in);
}

CsvConvertStats
convertTraceCsvToImage(const std::string &csv_path,
                       const std::string &image_path)
{
    // Pass 1: the function table, per-function counts, and whether the
    // rows are already in seal() order (arrival-sorted, ties in file
    // order).  The table is a Trace so that Trace::addFunction names an
    // unnamed function here exactly as it does for readTraceFile.
    Trace table;
    std::vector<std::uint64_t> counts;
    std::uint64_t request_count = 0;
    sim::SimTime last_arrival = std::numeric_limits<sim::SimTime>::min();
    bool sorted = true;
    std::ifstream in = openCsv(csv_path);
    scanCsvTrace(
        in,
        [&](FunctionProfile fn) {
            table.addFunction(std::move(fn));
            counts.push_back(0);
        },
        [&](FunctionId function, sim::SimTime arrival_us, sim::SimTime) {
            ++counts[function];
            ++request_count;
            if (arrival_us < last_arrival)
                sorted = false;
            last_arrival = arrival_us;
        });

    const CsvConvertStats stats{request_count, table.functionCount()};
    in.clear();
    in.seekg(0);
    if (!sorted) {
        // seal() must reorder the rows, which requires materializing
        // them; unsorted CSVs are the exception, not the rule.
        writeTraceImageFile(readTrace(in), image_path);
        return stats;
    }

    // Pass 2: stream the rows straight into the image.
    TraceImageStreamWriter writer(image_path, table.functions(),
                                  request_count, counts);
    scanCsvTrace(
        in, [](FunctionProfile) {},
        [&writer](FunctionId function, sim::SimTime arrival_us,
                  sim::SimTime exec_us) {
            writer.append(function, arrival_us, exec_us);
        });
    writer.finish();
    return stats;
}

} // namespace cidre::trace

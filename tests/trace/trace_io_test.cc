/**
 * @file
 * Round-trip and error tests for trace CSV persistence.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "tests/temp_file.h"
#include "trace/generators.h"
#include "trace/trace_image.h"
#include "trace/trace_io.h"

namespace cidre::trace {
namespace {

Trace
sampleTrace()
{
    Trace t;
    FunctionProfile fn;
    fn.name = "resize";
    fn.memory_mb = 256;
    fn.cold_start_us = sim::msec(300);
    fn.runtime = Runtime::Node;
    fn.median_exec_us = sim::msec(40);
    t.addFunction(std::move(fn));
    t.addRequest(0, sim::msec(5), sim::msec(42));
    t.addRequest(0, sim::msec(9), sim::msec(38));
    t.seal();
    return t;
}

TEST(TraceIo, RoundTrip)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    writeTrace(original, buffer);
    const Trace loaded = readTrace(buffer);

    ASSERT_EQ(loaded.functionCount(), original.functionCount());
    ASSERT_EQ(loaded.requestCount(), original.requestCount());
    EXPECT_EQ(loaded.functions()[0].name, "resize");
    EXPECT_EQ(loaded.functions()[0].memory_mb, 256);
    EXPECT_EQ(loaded.functions()[0].cold_start_us, sim::msec(300));
    EXPECT_EQ(loaded.functions()[0].runtime, Runtime::Node);
    EXPECT_EQ(loaded.functions()[0].median_exec_us, sim::msec(40));
    for (std::size_t i = 0; i < loaded.requestCount(); ++i) {
        EXPECT_EQ(loaded.requests()[i].arrival_us,
                  original.requests()[i].arrival_us);
        EXPECT_EQ(loaded.requests()[i].exec_us,
                  original.requests()[i].exec_us);
    }
}

TEST(TraceIo, GeneratedAzureTraceRoundTripsExactly)
{
    // A realistic generated workload (thousands of requests, Zipf
    // function mix) must survive write -> read with request-level
    // equality: same id, function binding, arrival and execution time
    // for every request, and identical function profiles.
    const Trace original = makeAzureLikeTrace(42, 0.1);
    ASSERT_GT(original.requestCount(), 1000u);

    std::stringstream buffer;
    writeTrace(original, buffer);
    const Trace loaded = readTrace(buffer);

    ASSERT_EQ(loaded.functionCount(), original.functionCount());
    for (std::size_t f = 0; f < original.functionCount(); ++f) {
        const FunctionProfile &a = original.functions()[f];
        const FunctionProfile &b = loaded.functions()[f];
        EXPECT_EQ(b.id, a.id);
        EXPECT_EQ(b.name, a.name);
        EXPECT_EQ(b.memory_mb, a.memory_mb);
        EXPECT_EQ(b.cold_start_us, a.cold_start_us);
        EXPECT_EQ(b.runtime, a.runtime);
        EXPECT_EQ(b.median_exec_us, a.median_exec_us);
    }
    ASSERT_EQ(loaded.requestCount(), original.requestCount());
    for (std::size_t i = 0; i < original.requestCount(); ++i) {
        const Request &a = original.requests()[i];
        const Request &b = loaded.requests()[i];
        ASSERT_EQ(b.id, a.id) << "request " << i;
        ASSERT_EQ(b.function, a.function) << "request " << i;
        ASSERT_EQ(b.arrival_us, a.arrival_us) << "request " << i;
        ASSERT_EQ(b.exec_us, a.exec_us) << "request " << i;
    }
}

TEST(TraceIo, CommentsAndBlanksIgnored)
{
    std::stringstream in(
        "# a comment\n"
        "\n"
        "F,0,fn0,128,1000,python,500\n"
        "# another\n"
        "R,0,10,20\n");
    const Trace t = readTrace(in);
    EXPECT_EQ(t.functionCount(), 1u);
    EXPECT_EQ(t.requestCount(), 1u);
}

TEST(TraceIo, RejectsUnknownRecord)
{
    std::stringstream in("X,1,2\n");
    EXPECT_THROW(readTrace(in), std::runtime_error);
}

TEST(TraceIo, RejectsBadFieldCounts)
{
    std::stringstream f("F,0,fn0,128\n");
    EXPECT_THROW(readTrace(f), std::runtime_error);
    std::stringstream r(
        "F,0,fn0,128,1000,python,500\nR,0,10\n");
    EXPECT_THROW(readTrace(r), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownFunctionReference)
{
    std::stringstream in(
        "F,0,fn0,128,1000,python,500\nR,3,10,20\n");
    EXPECT_THROW(readTrace(in), std::runtime_error);
}

TEST(TraceIo, RejectsBadNumbers)
{
    std::stringstream in(
        "F,0,fn0,abc,1000,python,500\n");
    EXPECT_THROW(readTrace(in), std::runtime_error);
}

TEST(TraceIo, RejectsOutOfOrderFunctionIds)
{
    std::stringstream in("F,7,fn7,128,1000,python,500\n");
    EXPECT_THROW(readTrace(in), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownRuntime)
{
    std::stringstream in("F,0,fn0,128,1000,lisp,500\n");
    EXPECT_THROW(readTrace(in), std::runtime_error);
}

TEST(TraceIo, WriteRequiresSealed)
{
    Trace t;
    t.addFunction({});
    std::ostringstream out;
    EXPECT_THROW(writeTrace(t, out), std::logic_error);
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    ASSERT_TRUE(out) << path;
    out << text;
}

TEST(TraceIo, FileRoundTrip)
{
    const Trace original = sampleTrace();
    const test::TempFile csv("trace_io.csv");
    writeTraceFile(original, csv.path());
    const Trace loaded = readTraceFile(csv.path());
    EXPECT_EQ(loaded.requestCount(), original.requestCount());
    EXPECT_THROW(readTraceFile("/nonexistent/nope.csv"),
                 std::runtime_error);
}

TEST(TraceIo, UnnamedFunctionIsNamedAlikeOnEveryPath)
{
    // An empty name field gets Trace::addFunction's default whether the
    // CSV is read into a Trace or converted to an image, with its rows
    // in arrival order (streamed) or not (materialized first).
    const std::string function = "F,0,,128,500000,python,100000\n";
    const test::TempFile sorted("unnamed_sorted.csv");
    const test::TempFile unsorted("unnamed_unsorted.csv");
    writeText(sorted.path(), function + "R,0,10,20\nR,0,30,20\n");
    writeText(unsorted.path(), function + "R,0,30,20\nR,0,10,20\n");
    EXPECT_EQ(readTraceFile(sorted.path()).functions()[0].name, "fn0");
    for (const test::TempFile *csv : {&sorted, &unsorted}) {
        const test::TempFile ctrb("unnamed.ctrb");
        convertTraceCsvToImage(csv->path(), ctrb.path());
        EXPECT_EQ(TraceImage::open(ctrb.path()).view().function(0).name,
                  "fn0")
            << csv->path();
    }
}

TEST(TraceIo, ReadErrorIsNotEndOfFile)
{
    // A directory opens as a stream, then fails on its first read.
    const test::TempFile dir("trace_dir");
    ASSERT_TRUE(std::filesystem::create_directory(dir.path()));
    try {
        (void)readTraceFile(dir.path());
        ADD_FAILURE() << "read a directory as an empty trace";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("read error"),
                  std::string::npos)
            << e.what();
    }
    const test::TempFile ctrb("from_dir.ctrb");
    EXPECT_THROW(convertTraceCsvToImage(dir.path(), ctrb.path()),
                 std::runtime_error);
    EXPECT_FALSE(std::filesystem::exists(ctrb.path()));
    EXPECT_FALSE(std::filesystem::exists(ctrb.path() + ".tmp"));
}

TEST(TraceIo, ConvertRejectsNegativeTimesAndPublishesNothing)
{
    // Arrival-sorted rows take the streaming path, which must reject a
    // negative arrival or exec time with the error readTraceFile gives.
    const test::TempFile csv_file("convert_negative.csv");
    const test::TempFile ctrb_file("convert_negative.ctrb");
    const std::string &csv = csv_file.path();
    const std::string &ctrb = ctrb_file.path();
    for (const std::string row : {"R,0,5000,-5", "R,0,-5,5000"}) {
        writeText(csv, "F,0,fn0,128,1000,python,500\n" + row +
                           "\nR,0,9000,10\n");
        try {
            convertTraceCsvToImage(csv, ctrb);
            ADD_FAILURE() << row << " converted";
        } catch (const std::invalid_argument &e) {
            EXPECT_STREQ(e.what(), "Trace: negative time in request")
                << row;
        }
        EXPECT_FALSE(std::filesystem::exists(ctrb)) << row;
        EXPECT_FALSE(std::filesystem::exists(ctrb + ".tmp")) << row;
        EXPECT_THROW(readTraceFile(csv), std::invalid_argument) << row;
    }
}

} // namespace
} // namespace cidre::trace

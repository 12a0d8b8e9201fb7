/**
 * @file
 * Tests for the `.ctrb` binary columnar trace format: CSV <-> binary
 * round-trip equality, corruption rejection (magic, version,
 * truncation, checksum), and empty/degenerate traces.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.h"
#include "policies/registry.h"
#include "tests/temp_file.h"
#include "trace/generators.h"
#include "trace/trace.h"
#include "trace/trace_image.h"
#include "trace/trace_io.h"
#include "trace/trace_view.h"

namespace cidre::trace {
namespace {

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** The open() error message for @p path, or "" if open succeeded. */
std::string
openError(const std::string &path)
{
    try {
        const TraceImage image = TraceImage::open(path);
        return "";
    } catch (const std::runtime_error &e) {
        return e.what();
    }
}

void
expectViewsEqual(TraceView expected, TraceView actual)
{
    ASSERT_EQ(actual.functionCount(), expected.functionCount());
    for (FunctionId f = 0; f < expected.functionCount(); ++f) {
        const FunctionProfile &a = expected.function(f);
        const FunctionProfile &b = actual.function(f);
        EXPECT_EQ(b.id, a.id);
        EXPECT_EQ(b.name, a.name);
        EXPECT_EQ(b.memory_mb, a.memory_mb);
        EXPECT_EQ(b.cold_start_us, a.cold_start_us);
        EXPECT_EQ(b.runtime, a.runtime);
        EXPECT_EQ(b.median_exec_us, a.median_exec_us);
    }
    ASSERT_EQ(actual.requestCount(), expected.requestCount());
    for (std::uint64_t i = 0; i < expected.requestCount(); ++i) {
        ASSERT_EQ(actual.requestFunction(i), expected.requestFunction(i))
            << "request " << i;
        ASSERT_EQ(actual.arrivalUs(i), expected.arrivalUs(i))
            << "request " << i;
        ASSERT_EQ(actual.execUs(i), expected.execUs(i)) << "request " << i;
    }
    for (FunctionId f = 0; f < expected.functionCount(); ++f) {
        const auto a = expected.arrivalsOf(f);
        const auto b = actual.arrivalsOf(f);
        ASSERT_EQ(b.size(), a.size()) << "function " << f;
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(b[i], a[i]) << "function " << f << " arrival " << i;
    }
    EXPECT_EQ(actual.duration(), expected.duration());
}

TEST(TraceImage, GeneratedTraceRoundTripsExactly)
{
    const Trace original = makeAzureLikeTrace(42, 0.05);
    ASSERT_GT(original.requestCount(), 1000u);
    const test::TempFile file("roundtrip.ctrb");
    const std::string &path = file.path();
    writeTraceImageFile(original, path);

    const TraceImage image = TraceImage::open(path);
    EXPECT_EQ(image.requestCount(), original.requestCount());
    EXPECT_EQ(image.functionCount(), original.functionCount());
    expectViewsEqual(TraceView(original), image.view());
}

TEST(TraceImage, CsvAndImagePathsAgree)
{
    // CSV -> Trace -> image must load back to exactly the CSV's data.
    const Trace original = makeFcLikeTrace(7, 0.05);
    const test::TempFile csv_file("agree.csv");
    const std::string &csv = csv_file.path();
    const test::TempFile ctrb_file("agree.ctrb");
    const std::string &ctrb = ctrb_file.path();
    writeTraceFile(original, csv);
    const Trace reparsed = readTraceFile(csv);
    writeTraceImageFile(reparsed, ctrb);
    const TraceImage image = TraceImage::open(ctrb);
    expectViewsEqual(TraceView(reparsed), image.view());
}

TEST(TraceImage, DetectsFormatByMagic)
{
    const Trace trace = makeAzureLikeTrace(1, 0.01);
    const test::TempFile csv_file("detect.csv");
    const std::string &csv = csv_file.path();
    const test::TempFile ctrb_file("detect.ctrb");
    const std::string &ctrb = ctrb_file.path();
    writeTraceFile(trace, csv);
    writeTraceImageFile(trace, ctrb);
    EXPECT_TRUE(isTraceImageFile(ctrb));
    EXPECT_FALSE(isTraceImageFile(csv));
    const test::TempFile missing("nope.ctrb");
    EXPECT_FALSE(isTraceImageFile(missing.path()));
}

TEST(TraceImage, RejectsBadMagic)
{
    const test::TempFile file("badmagic.ctrb");
    const std::string &path = file.path();
    writeTraceImageFile(makeAzureLikeTrace(1, 0.01), path);
    std::vector<char> bytes = readAll(path);
    bytes[0] = 'X';
    writeAll(path, bytes);
    const std::string error = openError(path);
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
    EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST(TraceImage, RejectsUnsupportedVersion)
{
    const test::TempFile file("badversion.ctrb");
    const std::string &path = file.path();
    writeTraceImageFile(makeAzureLikeTrace(1, 0.01), path);
    std::vector<char> bytes = readAll(path);
    const std::uint32_t bogus = kTraceImageVersion + 9;
    std::memcpy(bytes.data() + offsetof(TraceImageHeader, version),
                &bogus, sizeof bogus);
    writeAll(path, bytes);
    const std::string error = openError(path);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(TraceImage, RejectsTruncatedFile)
{
    const test::TempFile file("truncated.ctrb");
    const std::string &path = file.path();
    writeTraceImageFile(makeAzureLikeTrace(1, 0.01), path);
    std::vector<char> bytes = readAll(path);
    bytes.resize(bytes.size() - 128);
    writeAll(path, bytes);
    const std::string error = openError(path);
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;

    // Shorter than even the header.
    bytes.resize(17);
    writeAll(path, bytes);
    const std::string header_error = openError(path);
    EXPECT_NE(header_error.find("truncated"), std::string::npos)
        << header_error;
}

TEST(TraceImage, RejectsChecksumMismatch)
{
    const test::TempFile file("badsum.ctrb");
    const std::string &path = file.path();
    writeTraceImageFile(makeAzureLikeTrace(1, 0.01), path);
    std::vector<char> bytes = readAll(path);
    // Flip one payload bit (past the header) without changing sizes.
    bytes[sizeof(TraceImageHeader) + 40] ^= 0x10;
    writeAll(path, bytes);
    const std::string error = openError(path);
    EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
}

TEST(TraceImage, RejectsMissingFile)
{
    const test::TempFile missing("missing.ctrb");
    const std::string error = openError(missing.path());
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TraceImage, EmptyTraceRoundTrips)
{
    Trace empty;
    empty.seal();
    const test::TempFile file("empty.ctrb");
    const std::string &path = file.path();
    writeTraceImageFile(empty, path);
    const TraceImage image = TraceImage::open(path);
    EXPECT_EQ(image.functionCount(), 0u);
    EXPECT_EQ(image.requestCount(), 0u);
    EXPECT_TRUE(image.view().valid());
    EXPECT_TRUE(image.view().empty());
    EXPECT_EQ(image.view().duration(), 0);
}

TEST(TraceImage, FunctionsWithZeroRequestsRoundTrip)
{
    Trace trace;
    for (int i = 0; i < 3; ++i) {
        FunctionProfile fn;
        fn.name = "fn" + std::to_string(i);
        fn.cold_start_us = sim::msec(100 + i);
        fn.median_exec_us = sim::msec(10);
        trace.addFunction(std::move(fn));
    }
    trace.addRequest(1, sim::msec(5), sim::msec(20));
    trace.seal();

    const test::TempFile file("sparse.ctrb");
    const std::string &path = file.path();
    writeTraceImageFile(trace, path);
    const TraceImage image = TraceImage::open(path);
    const TraceView view = image.view();
    ASSERT_EQ(view.functionCount(), 3u);
    ASSERT_EQ(view.requestCount(), 1u);
    EXPECT_EQ(view.arrivalsOf(0).size(), 0u);
    ASSERT_EQ(view.arrivalsOf(1).size(), 1u);
    EXPECT_EQ(view.arrivalsOf(1)[0], sim::msec(5));
    EXPECT_EQ(view.arrivalsOf(2).size(), 0u);
    EXPECT_EQ(view.requestCountByFunction(),
              (std::vector<std::uint64_t>{0, 1, 0}));
}

TEST(TraceImage, ViewSurvivesImageMove)
{
    const test::TempFile file("move.ctrb");
    const std::string &path = file.path();
    writeTraceImageFile(makeAzureLikeTrace(3, 0.01), path);
    TraceImage first = TraceImage::open(path);
    const std::uint64_t requests = first.requestCount();
    TraceImage second = std::move(first);
    EXPECT_EQ(second.requestCount(), requests);
    EXPECT_TRUE(second.view().valid());
    EXPECT_EQ(second.view().requestCount(), requests);
    EXPECT_FALSE(second.view().function(0).name.empty());
}

// ---- format goldens -------------------------------------------------------
//
// Fixed bytes, so that a change which moves one byte of the `.ctrb`
// format, or one bit of its checksum, fails here even when the writer
// and the reader move together.

std::string
toHex(const std::vector<char> &bytes)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string hex;
    for (const char c : bytes) {
        const auto byte = static_cast<unsigned char>(c);
        hex += kDigits[byte >> 4];
        hex += kDigits[byte & 0xF];
    }
    return hex;
}

/**
 * Two functions, the first without requests; three requests added out
 * of order, two of them tied at 10 µs (seal() keeps their insertion
 * order).
 */
Trace
tinyTrace()
{
    Trace trace;
    FunctionProfile idle;
    idle.name = "idle";
    idle.memory_mb = 128;
    idle.cold_start_us = 250000;
    idle.runtime = Runtime::Python;
    idle.median_exec_us = 40000;
    trace.addFunction(std::move(idle));
    FunctionProfile resize;
    resize.name = "resize";
    resize.memory_mb = 512;
    resize.cold_start_us = 900000;
    resize.runtime = Runtime::Node;
    resize.median_exec_us = 75000;
    trace.addFunction(std::move(resize));
    trace.addRequest(1, 25, 5);
    trace.addRequest(1, 10, 20);
    trace.addRequest(1, 10, 30);
    trace.seal();
    return trace;
}

/** tinyTrace() as a `.ctrb` image: header, profiles, columns, index. */
constexpr const char *kTinyImageHex =
    "43494452455452420100000060000000"
    "02000000000000000300000000000000"
    "2001000000000000408aa29ab82d9fe5"
    "6000000000000000b000000000000000"
    "c000000000000000d800000000000000"
    "f0000000000000000801000000000000"
    "04000000000000008000000000000000"
    "90d0030000000000409c000000000000"
    "69646c65000000000600000001000000"
    "0002000000000000a0bb0d0000000000"
    "f824010000000000726573697a650000"
    "01000000010000000100000000000000"
    "0a000000000000000a00000000000000"
    "19000000000000001400000000000000"
    "1e000000000000000500000000000000"
    "00000000000000000000000000000000"
    "03000000000000000a00000000000000"
    "0a000000000000001900000000000000";

TEST(TraceImageGolden, TinyImageBytesArePinned)
{
    const test::TempFile image("golden.ctrb");
    writeTraceImageFile(tinyTrace(), image.path());
    EXPECT_EQ(toHex(readAll(image.path())), kTinyImageHex);

    // The same rows through the CSV converter's streaming path.
    const test::TempFile csv("golden.csv");
    const test::TempFile converted("golden_csv.ctrb");
    writeTraceFile(tinyTrace(), csv.path());
    convertTraceCsvToImage(csv.path(), converted.path());
    EXPECT_EQ(toHex(readAll(converted.path())), kTinyImageHex);
}

TEST(TraceImageGolden, ChecksumIsPinned)
{
    std::vector<std::byte> data(1000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::byte>((i * 37 + 11) & 0xFF);
    // Empty, tail-only, and 31 full lane blocks plus an 8-byte tail.
    EXPECT_EQ(traceImageChecksum(data.data(), 0), 0xcb4516fac9a67617ull);
    EXPECT_EQ(traceImageChecksum(data.data(), 31), 0xdf0084d0a53f186bull);
    EXPECT_EQ(traceImageChecksum(data.data(), 1000), 0x98fee9b14e4af7abull);
}

TEST(TraceImage, ChecksumIsStableAndPositionSensitive)
{
    const std::byte data[] = {std::byte{1}, std::byte{2}, std::byte{3},
                              std::byte{4}, std::byte{5}};
    const std::byte swapped[] = {std::byte{2}, std::byte{1}, std::byte{3},
                                 std::byte{4}, std::byte{5}};
    EXPECT_EQ(traceImageChecksum(data, sizeof data),
              traceImageChecksum(data, sizeof data));
    EXPECT_NE(traceImageChecksum(data, sizeof data),
              traceImageChecksum(swapped, sizeof swapped));
    EXPECT_NE(traceImageChecksum(data, sizeof data),
              traceImageChecksum(data, sizeof data - 1));
}

/**
 * Write tinyTrace()'s image to @p path with @p patch applied to its
 * bytes and the payload checksum recomputed, so that only the checks
 * behind the checksum can catch the change.
 */
template <typename Patch>
void
writeResealedTinyImage(const std::string &path, Patch patch)
{
    writeTraceImageFile(tinyTrace(), path);
    std::vector<char> bytes = readAll(path);
    TraceImageHeader header;
    std::memcpy(&header, bytes.data(), sizeof header);
    patch(header, bytes);
    header.payload_checksum = traceImageChecksum(
        reinterpret_cast<const std::byte *>(bytes.data()) +
            header.header_bytes,
        header.file_bytes - header.header_bytes);
    std::memcpy(bytes.data(), &header, sizeof header);
    writeAll(path, bytes);
}

/** Overwrite the 8-byte time at @p offset in @p bytes. */
void
patchTime(std::vector<char> &bytes, std::uint64_t offset, sim::SimTime t)
{
    std::memcpy(bytes.data() + offset, &t, sizeof t);
}

TEST(TraceImage, RejectsANegativeFirstArrival)
{
    const test::TempFile file("negative_arrival.ctrb");
    writeResealedTinyImage(
        file.path(), [](const TraceImageHeader &h, std::vector<char> &b) {
            patchTime(b, h.arrivals_col_offset, -1);
        });
    std::string errors[2];
    const TraceOpenMode modes[2] = {TraceOpenMode::Resident,
                                    TraceOpenMode::Streaming};
    for (int m = 0; m < 2; ++m) {
        try {
            const TraceImage image = TraceImage::open(file.path(), modes[m]);
        } catch (const std::runtime_error &e) {
            errors[m] = e.what();
        }
    }
    EXPECT_NE(errors[0].find("negative arrival time"), std::string::npos)
        << errors[0];
    EXPECT_EQ(errors[1], errors[0]);
}

TEST(TraceImage, RejectsAnIndexThatDoesNotMatchTheFunctionColumn)
{
    // Offsets {0, 1, 3} rise and cover the three requests, but give the
    // request-less function a slot and "resize" two slots for its three
    // rows: a replay consuming one slot per row would run off the index.
    const test::TempFile file("index_mismatch.ctrb");
    writeResealedTinyImage(
        file.path(), [](const TraceImageHeader &h, std::vector<char> &b) {
            const std::uint64_t one = 1;
            std::memcpy(b.data() + h.index_offsets_offset + 8, &one,
                        sizeof one);
        });
    std::string errors[2];
    const TraceOpenMode modes[2] = {TraceOpenMode::Resident,
                                    TraceOpenMode::Streaming};
    for (int m = 0; m < 2; ++m) {
        try {
            const TraceImage image = TraceImage::open(file.path(), modes[m]);
        } catch (const std::runtime_error &e) {
            errors[m] = e.what();
        }
    }
    EXPECT_NE(errors[0].find("arrival index does not match the function "
                             "column"),
              std::string::npos)
        << errors[0];
    EXPECT_EQ(errors[1], errors[0]);
}

TEST(TraceImage, ResealedNegativeExecFailsAtTheEngineIntake)
{
    // The reader leaves exec times to the engine's one intake check,
    // which names the request before anything is scheduled from it.
    const test::TempFile file("negative_exec.ctrb");
    writeResealedTinyImage(
        file.path(), [](const TraceImageHeader &h, std::vector<char> &b) {
            patchTime(b, h.exec_col_offset + 8, -sim::sec(5));
        });
    const TraceImage image = TraceImage::open(file.path());
    ASSERT_EQ(image.view().execUs(1), -sim::sec(5));
    core::EngineConfig config;
    core::Engine engine(image.view(), config,
                        policies::makePolicy("ttl", config));
    std::string error;
    try {
        engine.run();
    } catch (const std::invalid_argument &e) {
        error = e.what();
    }
    EXPECT_NE(error.find("request 1: negative exec time"), std::string::npos)
        << error;
}

} // namespace
} // namespace cidre::trace

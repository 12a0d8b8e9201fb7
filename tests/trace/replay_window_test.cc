/**
 * @file
 * Tests for the out-of-core replay substrate: the pure advice-span
 * planner (outward-aligned prefetch, inward-aligned release that can
 * never touch the header/profile/index-offset pages), the ReplayWindow
 * cursor (releases what has arrived, and released rows stay unmapped
 * under a backlog), the streaming `.ctrb`
 * writer (an unfinished one publishes nothing), the incremental
 * checksummer, and Streaming-mode open (identical views and identical
 * error text to Resident mode).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "core/engine.h"
#include "policies/registry.h"
#include "sim/time.h"
#include "tests/temp_file.h"
#include "trace/generators.h"
#include "trace/replay_window.h"
#include "trace/trace.h"
#include "trace/trace_image.h"
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

std::string
openError(const std::string &path, TraceOpenMode mode)
{
    try {
        const TraceImage image = TraceImage::open(path, mode);
        return "";
    } catch (const std::runtime_error &e) {
        return e.what();
    }
}

// ---- ReplayAdvicePlanner (pure span arithmetic) -------------------------

/** Synthetic geometry with a deliberately page-misaligned column start. */
TraceImageHeader
plannerHeader()
{
    TraceImageHeader header{};
    header.function_count = 4;
    header.request_count = 1000;
    header.functions_col_offset = 4104; // 8-aligned, NOT 64-aligned
    header.arrivals_col_offset = 8200;
    header.exec_col_offset = 16392;
    header.index_offsets_offset = 24584;
    header.index_values_offset = 24624;
    return header;
}

constexpr std::uint64_t kPage = 64;

TEST(ReplayAdvicePlanner, RejectsNonPowerOfTwoPage)
{
    EXPECT_THROW(ReplayAdvicePlanner(plannerHeader(), 0),
                 std::invalid_argument);
    EXPECT_THROW(ReplayAdvicePlanner(plannerHeader(), 48),
                 std::invalid_argument);
}

TEST(ReplayAdvicePlanner, PrefetchAlignsOutwardAndCoversEveryRow)
{
    const TraceImageHeader header = plannerHeader();
    const ReplayAdvicePlanner planner(header, kPage);
    std::vector<AdviceSpan> spans;
    planner.planPrefetch(10, 20, spans);
    ASSERT_EQ(spans.size(), 3u); // functions, arrivals, exec
    const std::uint64_t row_begin[3] = {header.functions_col_offset + 10 * 4,
                                        header.arrivals_col_offset + 10 * 8,
                                        header.exec_col_offset + 10 * 8};
    const std::uint64_t row_end[3] = {header.functions_col_offset + 20 * 4,
                                      header.arrivals_col_offset + 20 * 8,
                                      header.exec_col_offset + 20 * 8};
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(spans[i].willneed);
        EXPECT_EQ(spans[i].offset % kPage, 0u);
        EXPECT_EQ(spans[i].length % kPage, 0u);
        // Outward: the span must cover the rows (may overhang them).
        EXPECT_LE(spans[i].offset, row_begin[i]);
        EXPECT_GE(spans[i].offset + spans[i].length, row_end[i]);
    }
}

TEST(ReplayAdvicePlanner, ReleaseAlignsInwardAndNeverTouchesNeighbours)
{
    const TraceImageHeader header = plannerHeader();
    const ReplayAdvicePlanner planner(header, kPage);
    std::vector<AdviceSpan> spans;
    planner.planRelease(0, header.request_count, spans);
    ASSERT_EQ(spans.size(), 3u);
    const std::uint64_t row_begin[3] = {header.functions_col_offset,
                                        header.arrivals_col_offset,
                                        header.exec_col_offset};
    const std::uint64_t row_end[3] = {
        header.functions_col_offset + header.request_count * 4,
        header.arrivals_col_offset + header.request_count * 8,
        header.exec_col_offset + header.request_count * 8};
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(spans[i].willneed);
        EXPECT_EQ(spans[i].offset % kPage, 0u);
        EXPECT_EQ(spans[i].length % kPage, 0u);
        // Inward: strictly inside the released rows.  With the column
        // start page-misaligned, the first page (shared with the
        // profile table) must survive.
        EXPECT_GE(spans[i].offset, row_begin[i]);
        EXPECT_LE(spans[i].offset + spans[i].length, row_end[i]);
    }
    EXPECT_GT(spans[0].offset, header.functions_col_offset);
}

TEST(ReplayAdvicePlanner, ConsecutiveReleasesLeaveNoPageBehind)
{
    // A cursor releases [0, 10) and then [10, 1000): the page holding
    // rows on both sides of row 10 goes with the second release, so the
    // two together drop what one release of [0, 1000) drops.
    const TraceImageHeader header = plannerHeader();
    const ReplayAdvicePlanner planner(header, kPage);
    std::vector<AdviceSpan> whole;
    planner.planRelease(0, header.request_count, whole);
    std::vector<AdviceSpan> first;
    planner.planRelease(0, 10, first);
    std::vector<AdviceSpan> second;
    planner.planRelease(10, header.request_count, second);
    ASSERT_EQ(whole.size(), 3u);
    ASSERT_EQ(second.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(second[i].offset + second[i].length,
                  whole[i].offset + whole[i].length);
        std::uint64_t from = second[i].offset;
        for (const AdviceSpan &span : first) {
            if (span.offset + span.length >= second[i].offset &&
                span.offset < second[i].offset)
                from = span.offset;
        }
        EXPECT_EQ(from, whole[i].offset) << "column " << i;
    }
}

TEST(ReplayAdvicePlanner, ReleaseReachesBackOverTheFaultAroundBlock)
{
    // A fault ahead of the cursor may have re-mapped released pages up
    // to a page table behind it, so each release starts that far back,
    // but never before the column's first whole page.
    TraceImageHeader header = plannerHeader();
    header.request_count = 100000;
    header.arrivals_col_offset = header.functions_col_offset + 100000 * 4;
    header.exec_col_offset = header.arrivals_col_offset + 100000 * 8;
    const ReplayAdvicePlanner planner(header, kPage);
    const std::uint64_t reach = ReplayAdvicePlanner::kFaultAroundPages * kPage;
    const std::uint64_t column = header.arrivals_col_offset;
    std::vector<AdviceSpan> spans;
    planner.planRelease(50000, 60000, spans);
    ASSERT_EQ(spans.size(), 3u);
    const std::uint64_t page = (column + 50000 * 8) & ~(kPage - 1);
    EXPECT_EQ(spans[1].offset, page - reach);
    EXPECT_EQ(spans[1].offset + spans[1].length,
              (column + 60000 * 8) & ~(kPage - 1));

    spans.clear();
    planner.planRelease(100, 60000, spans);
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[1].offset, (column + kPage - 1) & ~(kPage - 1));
}

TEST(ReplayAdvicePlanner, PartialPageReleasePlansNothing)
{
    // Fewer rows than a page on either side: inward alignment collapses
    // the span to empty rather than dropping a shared page.
    const ReplayAdvicePlanner planner(plannerHeader(), 4096);
    std::vector<AdviceSpan> spans;
    planner.planRelease(0, 10, spans);
    EXPECT_TRUE(spans.empty());
    planner.planRelease(5, 5, spans);
    planner.planPrefetch(5, 5, spans);
    planner.planIndexRelease(5, 5, spans);
    EXPECT_TRUE(spans.empty());
}

TEST(ReplayAdvicePlanner, IndexReleaseStaysInsideTheValuesSection)
{
    const TraceImageHeader header = plannerHeader();
    const ReplayAdvicePlanner planner(header, kPage);
    std::vector<AdviceSpan> spans;
    planner.planIndexRelease(0, 100, spans);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_FALSE(spans[0].willneed);
    // 24624 is not 64-aligned: the first page is shared with the
    // index-offsets section and must never be released.
    EXPECT_GE(spans[0].offset, header.index_values_offset);
    EXPECT_GT(spans[0].offset, header.index_offsets_offset);
    EXPECT_LE(spans[0].offset + spans[0].length,
              header.index_values_offset + 100 * 8);
}

TEST(ReplayAdvicePlanner, IndexPagesPartitionTheSlots)
{
    // 24624 is 48 bytes into a 64-byte page: page 0 holds slots 0-1,
    // every later page eight slots.  A page's slot range released whole
    // is that page exactly, except page 0, which the offsets section
    // shares.
    const TraceImageHeader header = plannerHeader();
    const ReplayAdvicePlanner planner(header, kPage);
    EXPECT_EQ(planner.firstIndexSlotOn(0), 0u);
    EXPECT_EQ(planner.firstIndexSlotOn(1), 2u);
    EXPECT_EQ(planner.firstIndexSlotOn(2), 10u);
    for (std::uint64_t slot = 0; slot < header.request_count; ++slot) {
        const std::uint64_t page = planner.indexPageOf(slot);
        EXPECT_LE(planner.firstIndexSlotOn(page), slot);
        EXPECT_LT(slot, planner.firstIndexSlotOn(page + 1));
    }
    std::vector<AdviceSpan> spans;
    planner.planIndexRelease(planner.firstIndexSlotOn(0),
                             planner.firstIndexSlotOn(1), spans);
    EXPECT_TRUE(spans.empty());
    planner.planIndexRelease(planner.firstIndexSlotOn(3),
                             planner.firstIndexSlotOn(4), spans);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].offset, 24576u + 3 * kPage);
    EXPECT_EQ(spans[0].length, kPage);
}

// ---- ReplayWindow (cursor over a real image) ----------------------------

/** Written on first use, removed when the test binary exits. */
const std::string &
smallImage()
{
    static const test::TempFile file("replay_window.ctrb");
    static const bool written = [] {
        writeTraceImageFile(makeAzureLikeTrace(3, 0.02), file.path());
        return true;
    }();
    (void)written;
    return file.path();
}

TEST(ReplayWindow, CursorPrefetchesAheadAndReleasesWhatArrived)
{
    const TraceImage image =
        TraceImage::open(smallImage(), TraceOpenMode::Streaming);
    const TraceView view = image.view();
    const sim::SimTime w = sim::sec(60);
    ReplayWindow window(image, w);

    const auto arrivalsBefore = [&](sim::SimTime t) {
        std::uint64_t n = 0;
        while (n < view.requestCount() && view.arrivalUs(n) < t)
            ++n;
        return n;
    };

    window.advanceTo(0);
    EXPECT_EQ(window.prefetchedRequests(), arrivalsBefore(w));
    EXPECT_EQ(window.releasedRequests(), arrivalsBefore(0));

    // At t=w everything that arrived before w is released — and
    // nothing newer.
    window.advanceTo(w);
    EXPECT_EQ(window.prefetchedRequests(), arrivalsBefore(2 * w));
    EXPECT_EQ(window.releasedRequests(), arrivalsBefore(w));

    // A repeated boundary releases nothing more.
    window.advanceTo(w);
    EXPECT_EQ(window.releasedRequests(), arrivalsBefore(w));

    // Walk far past the end: everything ends up prefetched + released.
    for (sim::SimTime t = 3 * w; t <= view.duration() + 4 * w; t += w) {
        window.advanceTo(t);
        EXPECT_LE(window.releasedRequests(), window.prefetchedRequests());
    }
    EXPECT_EQ(window.prefetchedRequests(), view.requestCount());
    EXPECT_EQ(window.releasedRequests(), view.requestCount());
}

/**
 * Pages of [begin, end) mapped into this process, counted over the
 * pages wholly inside the range (bit 63 of a /proc/self/pagemap entry:
 * present); -1 when pagemap cannot be read.
 */
std::int64_t
mappedPages(const std::byte *begin, const std::byte *end)
{
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    const auto first =
        (reinterpret_cast<std::uintptr_t>(begin) + page - 1) / page;
    const auto last = reinterpret_cast<std::uintptr_t>(end) / page;
    const int fd = ::open("/proc/self/pagemap", O_RDONLY);
    if (fd < 0)
        return -1;
    std::int64_t mapped = 0;
    for (std::uintptr_t p = first; p < last && mapped >= 0; ++p) {
        std::uint64_t entry = 0;
        if (::pread(fd, &entry, sizeof entry,
                    static_cast<off_t>(p * sizeof entry)) != sizeof entry)
            mapped = -1;
        else
            mapped += static_cast<std::int64_t>(entry >> 63);
    }
    ::close(fd);
    return mapped;
}

TEST(ReplayWindow, ReleasedRowsStayUnmappedUnderBacklog)
{
    // The engine reads a row once, when it schedules that arrival, and
    // carries the request by value after that.  So the rows behind the
    // window stay unmapped even while their requests wait many windows
    // in a backlog: one small worker keeps cidre's channels deep.  The
    // image starts out of the page cache, as a trace larger than memory
    // does: each fault then maps only part of its fault-around block,
    // and a later fault in that block re-maps the released pages.
    core::EngineConfig config;
    config.cluster.workers = 1;
    config.cluster.total_memory_mb = 5 * 1024;
    {
        const int fd = ::open(smallImage().c_str(), O_RDONLY);
        ASSERT_GE(fd, 0);
        ::fdatasync(fd);
        ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
        ::close(fd);
    }
    const TraceImage image =
        TraceImage::open(smallImage(), TraceOpenMode::Streaming);
    core::Engine engine(image.view(), config,
                        policies::makePolicy("cidre", config));
    const sim::SimTime w = sim::sec(1);
    ReplayWindow window(image, w);
    engine.begin();
    window.advanceTo(0);
    for (sim::SimTime now = w; !engine.drained(); now += w) {
        engine.stepUntil(now);
        window.advanceTo(now);
    }
    const std::uint64_t n = image.requestCount();
    ASSERT_EQ(window.releasedRequests(), n);

    const TraceImageHeader &header = image.header();
    const std::byte *base = image.mapData();
    const std::pair<std::uint64_t, std::uint64_t> columns[] = {
        {header.functions_col_offset, 4},
        {header.arrivals_col_offset, 8},
        {header.exec_col_offset, 8}};
    for (const auto &[offset, width] : columns) {
        const std::int64_t mapped =
            mappedPages(base + offset, base + offset + n * width);
        if (mapped < 0)
            GTEST_SKIP() << "/proc/self/pagemap is not readable";
        EXPECT_EQ(mapped, 0) << "column at offset " << offset;
    }

    // The backlog was real: some request waited longer than a window.
    const core::RunMetrics metrics = engine.finish();
    EXPECT_EQ(metrics.total(), n);
    EXPECT_GT(metrics.overheadHistogram().maxValue(),
              static_cast<std::uint64_t>(2 * w));
}

TEST(ReplayWindow, ReleasedIndexPagesStayUnmapped)
{
    // Each function's arrival-index slots are consumed in order, but the
    // functions interleave, so a page of the values section holds slots
    // of several functions, consumed over many windows.  Once the last
    // slot on a page is consumed the page goes, however the functions
    // share it.  Same cold start and backlog as the columns above.
    core::EngineConfig config;
    config.cluster.workers = 1;
    config.cluster.total_memory_mb = 5 * 1024;
    {
        const int fd = ::open(smallImage().c_str(), O_RDONLY);
        ASSERT_GE(fd, 0);
        ::fdatasync(fd);
        ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
        ::close(fd);
    }
    const TraceImage image =
        TraceImage::open(smallImage(), TraceOpenMode::Streaming);
    core::Engine engine(image.view(), config,
                        policies::makePolicy("cidre", config));
    const sim::SimTime w = sim::sec(1);
    ReplayWindow window(image, w);
    engine.begin();
    window.advanceTo(0);
    for (sim::SimTime now = w; !engine.drained(); now += w) {
        engine.stepUntil(now);
        window.advanceTo(now);
    }
    const std::uint64_t n = image.requestCount();
    ASSERT_EQ(window.releasedRequests(), n);

    const std::byte *values = image.mapData() + image.header().index_values_offset;
    const std::int64_t mapped = mappedPages(values, values + n * 8);
    if (mapped < 0)
        GTEST_SKIP() << "/proc/self/pagemap is not readable";
    // The section spans many pages, so the check has something to see.
    ASSERT_GT(n * 8, 8 * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)));
    EXPECT_EQ(mapped, 0);
    EXPECT_EQ(engine.finish().total(), n);
}

TEST(ReplayWindow, WindowedReplayIsBitIdenticalToResidentRun)
{
    core::EngineConfig config;
    config.cluster.workers = 2;
    config.cluster.total_memory_mb = 8 * 1024;

    const TraceImage resident = TraceImage::open(smallImage());
    core::Engine baseline(resident.view(), config,
                          policies::makePolicy("ttl", config));
    const core::RunMetrics a = baseline.run();

    const TraceImage streamed =
        TraceImage::open(smallImage(), TraceOpenMode::Streaming);
    core::Engine engine(streamed.view(), config,
                        policies::makePolicy("ttl", config));
    const sim::SimTime w = sim::sec(60);
    ReplayWindow window(streamed, w);
    engine.begin();
    window.advanceTo(0);
    sim::SimTime now = 0;
    while (!engine.drained()) {
        now += w;
        engine.stepUntil(now);
        window.advanceTo(now);
    }
    const core::RunMetrics b = engine.finish();

    EXPECT_EQ(b.total(), a.total());
    EXPECT_EQ(b.coldRatio(), a.coldRatio());
    EXPECT_EQ(b.makespan(), a.makespan());
    EXPECT_EQ(b.avgMemoryGb(), a.avgMemoryGb());
    EXPECT_EQ(b.e2eHistogram().percentile(0.5),
              a.e2eHistogram().percentile(0.5));
    EXPECT_EQ(b.e2eHistogram().percentile(0.99),
              a.e2eHistogram().percentile(0.99));
    EXPECT_EQ(b.overheadHistogram().percentile(0.99),
              a.overheadHistogram().percentile(0.99));
}

// ---- TraceChecksummer / streaming writer / Streaming open ---------------

TEST(TraceChecksummer, ChunkedFeedMatchesOneShotChecksum)
{
    std::vector<std::byte> data(100'000);
    std::uint64_t x = 0x243F6A8885A308D3ull;
    for (std::size_t i = 0; i < data.size(); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        data[i] = static_cast<std::byte>(x & 0xFF);
    }
    const std::uint64_t expected = traceImageChecksum(data.data(), data.size());

    // Feed in awkward chunk sizes so 32-byte block boundaries are
    // crossed every which way.
    TraceChecksummer chunked;
    std::size_t offset = 0;
    std::size_t chunk = 1;
    while (offset < data.size()) {
        const std::size_t n = std::min(chunk, data.size() - offset);
        chunked.update(data.data() + offset, n);
        offset += n;
        chunk = chunk * 2 + 3;
    }
    EXPECT_EQ(chunked.finish(), expected);

    TraceChecksummer one_shot;
    one_shot.update(data.data(), data.size());
    EXPECT_EQ(one_shot.finish(), expected);
}

TEST(TraceImageStreamWriter, UnfinishedOrShortWriterPublishesNothing)
{
    const Trace trace = makeAzureLikeTrace(11, 0.01);
    const TraceView view(trace);
    const test::TempFile file("unfinished.ctrb");
    const std::string &path = file.path();
    {
        TraceImageStreamWriter writer(path, view.functions(),
                                      view.requestCount(),
                                      view.requestCountByFunction());
        writer.append(view.requestFunction(0), view.arrivalUs(0),
                      view.execUs(0));
        // finish() must refuse: fewer rows appended than declared.
        EXPECT_ANY_THROW(writer.finish());
    }
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(TraceImage, StreamingOpenLoadsTheIdenticalView)
{
    const TraceImage resident = TraceImage::open(smallImage());
    const TraceImage streamed =
        TraceImage::open(smallImage(), TraceOpenMode::Streaming);
    const TraceView a = resident.view();
    const TraceView b = streamed.view();
    ASSERT_EQ(b.requestCount(), a.requestCount());
    ASSERT_EQ(b.functionCount(), a.functionCount());
    for (std::uint64_t i = 0; i < a.requestCount(); ++i) {
        ASSERT_EQ(b.requestFunction(i), a.requestFunction(i)) << i;
        ASSERT_EQ(b.arrivalUs(i), a.arrivalUs(i)) << i;
        ASSERT_EQ(b.execUs(i), a.execUs(i)) << i;
    }
    for (FunctionId f = 0; f < a.functionCount(); ++f) {
        const auto ia = a.arrivalsOf(f);
        const auto ib = b.arrivalsOf(f);
        ASSERT_EQ(ib.size(), ia.size()) << f;
        for (std::size_t i = 0; i < ia.size(); ++i)
            ASSERT_EQ(ib[i], ia[i]) << f << "/" << i;
    }
}

TEST(TraceImage, StreamingOpenRejectsCorruptionWithIdenticalErrors)
{
    const test::TempFile file("corrupt.ctrb");
    const std::string &path = file.path();
    writeTraceImageFile(makeAzureLikeTrace(1, 0.01), path);
    std::vector<char> bytes = readAll(path);
    bytes[bytes.size() - 7] ^= 0x20; // flip a payload byte
    writeAll(path, bytes);
    const std::string resident_error =
        openError(path, TraceOpenMode::Resident);
    const std::string streaming_error =
        openError(path, TraceOpenMode::Streaming);
    EXPECT_NE(resident_error.find("checksum mismatch"), std::string::npos)
        << resident_error;
    EXPECT_EQ(streaming_error, resident_error);
}

} // namespace
} // namespace cidre::trace

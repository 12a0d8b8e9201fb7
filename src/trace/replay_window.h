/**
 * @file
 * Windowed streaming replay over an mmapped `.ctrb` image: bounded
 * residency for traces far larger than memory.
 *
 * ## The cursor model
 *
 * The engine reads a request's row exactly once, when it schedules
 * that request's arrival; from then on the request travels by value
 * (in its arrival event, a channel, a bound queue or a deferred
 * provision), however long it waits.  So the three request columns are
 * read strictly front to back.  ReplayWindow exploits this: a stepped
 * driver announces each window boundary (simulated time `now`, window
 * length `w`) after stepping the engine to it, and the window
 *
 *  - MADV_WILLNEEDs the column rows of requests arriving in
 *    [now, now + w) — the pages the engine is about to fault — and
 *  - MADV_DONTNEEDs the rows of requests that arrived before now,
 *    which the engine has read for the last time.  Each release
 *    reaches a page table back behind the cursor, since a fault ahead
 *    of it can re-map released pages
 *    (ReplayAdvicePlanner::kFaultAroundPages).
 *  - MADV_DONTNEEDs each page of the per-function arrival index once
 *    every slot on it belongs to a request that arrived.  Functions
 *    interleave in time, so a page shared by several functions goes
 *    with the last of its slots.
 *
 * Peak RSS then tracks the *window's* request volume, not the trace's,
 * even under overload: a backlog holds its requests by value, not by
 * row.
 *
 * ## Strictly a hint
 *
 * MADV_DONTNEED on a read-only MAP_PRIVATE file mapping drops page
 * table entries; a later touch refaults identical bytes from the page
 * cache (or disk).  Results are bit-identical with and without a
 * ReplayWindow, on any window length — pinned by the golden tests.
 *
 * The span arithmetic lives in ReplayAdvicePlanner, a pure class with
 * no syscalls: tests assert releases are inward-aligned (a page shared
 * with the header, profile table or index-offsets section is never
 * dropped) and strictly behind the cursor.
 */

#ifndef CIDRE_TRACE_REPLAY_WINDOW_H
#define CIDRE_TRACE_REPLAY_WINDOW_H

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "trace/trace_image.h"

namespace cidre::trace {

/** One madvise instruction (absolute file offsets). */
struct AdviceSpan
{
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    /** true = MADV_WILLNEED (prefetch), false = MADV_DONTNEED (drop). */
    bool willneed = false;
};

/**
 * Pure span arithmetic of the windowed replay (no syscalls; testable).
 *
 * Prefetch spans are aligned *outward* (covering pages), release spans
 * *inward* (pages inside the section only) — so a release can never
 * touch a page holding the header, the profile table, the index-offsets
 * section or a neighbouring column's live edge.
 */
class ReplayAdvicePlanner
{
  public:
    ReplayAdvicePlanner(const TraceImageHeader &header,
                        std::uint64_t page_size);

    /** Prefetch the column rows of requests [begin, end). */
    void planPrefetch(std::uint64_t begin, std::uint64_t end,
                      std::vector<AdviceSpan> &out) const;

    /**
     * Release the column rows of requests [begin, end), the rows before
     * @p begin being released already: the page holding row @p begin
     * goes too, so no page straddling two calls is left behind, and so
     * do the kFaultAroundPages pages before it.
     */
    void planRelease(std::uint64_t begin, std::uint64_t end,
                     std::vector<AdviceSpan> &out) const;

    /**
     * How far behind the cursor a read fault can re-map pages.  On a
     * fault in a file mapping, Linux may map more than the faulting
     * page: the cached pages of the aligned block around it
     * (fault-around, 64 KiB by default), or a large folio whole, but
     * never past the page table that maps it (512 pages).  When the
     * first fault in a block left some pages out (a cold or busy page
     * cache), a later fault there re-maps the block's released pages
     * as well; re-releasing this many pages behind the cursor drops
     * them again.
     */
    static constexpr std::uint64_t kFaultAroundPages = 512;

    /** Release arrival-index value slots [begin, end) (absolute slots). */
    void planIndexRelease(std::uint64_t begin, std::uint64_t end,
                          std::vector<AdviceSpan> &out) const;

    /** The page of the index values section holding @p slot, counted
     *  from the page holding slot 0. */
    std::uint64_t indexPageOf(std::uint64_t slot) const;

    /** The first slot on index page @p page or after it (pages counted
     *  as indexPageOf does); may exceed the slot count. */
    std::uint64_t firstIndexSlotOn(std::uint64_t page) const;

  private:
    void pushOutward(std::uint64_t offset, std::uint64_t length,
                     std::vector<AdviceSpan> &out) const;
    void pushInward(std::uint64_t offset, std::uint64_t length,
                    std::vector<AdviceSpan> &out) const;

    TraceImageHeader header_;
    std::uint64_t page_;
};

/**
 * The runtime half: owns the replay cursor over one TraceImage and
 * issues the planner's spans as madvise calls.  Drive it from a
 * stepped loop by calling advanceTo(t) at every window boundary t
 * (multiples of the window length, starting at 0).
 */
class ReplayWindow
{
  public:
    /** @param window_us window length in simulated µs (> 0). */
    ReplayWindow(const TraceImage &image, sim::SimTime window_us);

    /**
     * Announce the window boundary at simulated time @p now
     * (non-decreasing across calls), once the engine has stepped to
     * it: prefetch requests arriving in [now, now + window), release
     * requests that arrived before now along with their arrival-index
     * slots.
     */
    void advanceTo(sim::SimTime now);

    sim::SimTime windowUs() const { return window_us_; }

    // Telemetry (and test hooks).
    std::uint64_t prefetchedRequests() const { return cursor_; }
    std::uint64_t releasedRequests() const { return released_; }

  private:
    /** First request index >= @p from arriving at or after @p t,
     *  galloping forward from @p from (never touches pages behind it,
     *  bounded pages ahead of it). */
    std::uint64_t lowerBoundArrival(std::uint64_t from, sim::SimTime t) const;

    void applySpans();

    const TraceImage &image_;
    ReplayAdvicePlanner planner_;
    sim::SimTime window_us_;

    const sim::SimTime *arrivals_;
    const std::uint32_t *functions_;
    const std::uint64_t *index_offsets_;
    std::uint64_t request_count_;

    std::uint64_t cursor_ = 0;
    std::uint64_t released_ = 0;
    /** Arrival-index slots consumed so far, per function. */
    std::vector<std::uint64_t> index_consumed_;
    /** Slots not yet consumed, per index page (indexPageOf). */
    std::vector<std::uint32_t> index_page_live_;
    std::vector<AdviceSpan> spans_;
};

} // namespace cidre::trace

#endif // CIDRE_TRACE_REPLAY_WINDOW_H

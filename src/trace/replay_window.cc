#include "trace/replay_window.h"

#include <algorithm>
#include <stdexcept>

#include <sys/mman.h>
#include <unistd.h>

namespace cidre::trace {

ReplayAdvicePlanner::ReplayAdvicePlanner(const TraceImageHeader &header,
                                         std::uint64_t page_size)
    : header_(header), page_(page_size)
{
    if (page_ == 0 || (page_ & (page_ - 1)) != 0)
        throw std::invalid_argument(
            "ReplayAdvicePlanner: page size must be a power of two");
}

void
ReplayAdvicePlanner::pushOutward(std::uint64_t offset, std::uint64_t length,
                                 std::vector<AdviceSpan> &out) const
{
    if (length == 0)
        return;
    const std::uint64_t a = offset & ~(page_ - 1);
    const std::uint64_t b =
        (offset + length + page_ - 1) & ~(page_ - 1);
    out.push_back({a, b - a, /*willneed=*/true});
}

void
ReplayAdvicePlanner::pushInward(std::uint64_t offset, std::uint64_t length,
                                std::vector<AdviceSpan> &out) const
{
    const std::uint64_t a = (offset + page_ - 1) & ~(page_ - 1);
    const std::uint64_t b = (offset + length) & ~(page_ - 1);
    if (b > a)
        out.push_back({a, b - a, /*willneed=*/false});
}

void
ReplayAdvicePlanner::planPrefetch(std::uint64_t begin, std::uint64_t end,
                                  std::vector<AdviceSpan> &out) const
{
    if (end <= begin)
        return;
    pushOutward(header_.functions_col_offset + begin * 4, (end - begin) * 4,
                out);
    pushOutward(header_.arrivals_col_offset + begin * 8, (end - begin) * 8,
                out);
    pushOutward(header_.exec_col_offset + begin * 8, (end - begin) * 8,
                out);
}

void
ReplayAdvicePlanner::planRelease(std::uint64_t begin, std::uint64_t end,
                                 std::vector<AdviceSpan> &out) const
{
    if (end <= begin)
        return;
    // Each column's span starts one fault-around reach before the page
    // holding row `begin`: a read fault there since the last release
    // may have re-mapped released pages of its block.
    const std::uint64_t reach = kFaultAroundPages * page_;
    const auto release = [&](std::uint64_t column, std::uint64_t width) {
        const std::uint64_t page = (column + begin * width) & ~(page_ - 1);
        const std::uint64_t from =
            page > column + reach ? page - reach : column;
        pushInward(from, column + end * width - from, out);
    };
    release(header_.functions_col_offset, 4);
    release(header_.arrivals_col_offset, 8);
    release(header_.exec_col_offset, 8);
}

void
ReplayAdvicePlanner::planIndexRelease(std::uint64_t begin, std::uint64_t end,
                                      std::vector<AdviceSpan> &out) const
{
    if (end <= begin)
        return;
    pushInward(header_.index_values_offset + begin * 8, (end - begin) * 8,
               out);
}

std::uint64_t
ReplayAdvicePlanner::indexPageOf(std::uint64_t slot) const
{
    return (header_.index_values_offset + slot * 8) / page_ -
        header_.index_values_offset / page_;
}

std::uint64_t
ReplayAdvicePlanner::firstIndexSlotOn(std::uint64_t page) const
{
    if (page == 0)
        return 0;
    const std::uint64_t start =
        (header_.index_values_offset & ~(page_ - 1)) + page * page_;
    return (start - header_.index_values_offset + 7) / 8;
}

namespace {

std::uint64_t
runtimePageSize()
{
    const long ps = ::sysconf(_SC_PAGESIZE);
    return ps > 0 ? static_cast<std::uint64_t>(ps) : 4096;
}

} // namespace

ReplayWindow::ReplayWindow(const TraceImage &image, sim::SimTime window_us)
    : image_(image),
      planner_(image.header(), runtimePageSize()),
      window_us_(window_us)
{
    if (window_us_ <= 0)
        throw std::invalid_argument(
            "ReplayWindow: window length must be positive");
    const TraceImageHeader &header = image.header();
    const std::byte *base = image.mapData();
    arrivals_ = reinterpret_cast<const sim::SimTime *>(
        base + header.arrivals_col_offset);
    functions_ = reinterpret_cast<const std::uint32_t *>(
        base + header.functions_col_offset);
    index_offsets_ = reinterpret_cast<const std::uint64_t *>(
        base + header.index_offsets_offset);
    request_count_ = header.request_count;
    index_consumed_.assign(header.function_count, 0);
    const std::uint64_t pages = request_count_ == 0
        ? 0
        : planner_.indexPageOf(request_count_ - 1) + 1;
    index_page_live_.resize(pages);
    for (std::uint64_t p = 0; p < pages; ++p) {
        index_page_live_[p] = static_cast<std::uint32_t>(
            std::min(planner_.firstIndexSlotOn(p + 1), request_count_) -
            planner_.firstIndexSlotOn(p));
    }
}

std::uint64_t
ReplayWindow::lowerBoundArrival(std::uint64_t from, sim::SimTime t) const
{
    // Gallop from @p from instead of bisecting the whole remainder:
    // a plain binary search would fault O(log R) pages scattered far
    // ahead of the window, defeating the bounded-residency contract.
    std::uint64_t lo = from;
    if (lo >= request_count_ || arrivals_[lo] >= t)
        return lo;
    std::uint64_t step = 1;
    std::uint64_t hi;
    for (;;) {
        hi = lo + step;
        if (hi >= request_count_) {
            hi = request_count_;
            break;
        }
        if (arrivals_[hi] >= t)
            break;
        lo = hi;
        step *= 2;
    }
    const sim::SimTime *found =
        std::lower_bound(arrivals_ + lo, arrivals_ + hi, t);
    return static_cast<std::uint64_t>(found - arrivals_);
}

void
ReplayWindow::applySpans()
{
    auto *base = const_cast<std::byte *>(image_.mapData());
    for (const AdviceSpan &span : spans_) {
        ::madvise(base + span.offset, span.length,
                  span.willneed ? MADV_WILLNEED : MADV_DONTNEED);
    }
    spans_.clear();
}

void
ReplayWindow::advanceTo(sim::SimTime now)
{
    // Prefetch the rows arriving in [now, now + window).
    const std::uint64_t target = lowerBoundArrival(cursor_, now + window_us_);
    if (target > cursor_) {
        planner_.planPrefetch(cursor_, target, spans_);
        cursor_ = target;
    }

    // Release the rows of requests that arrived before now: the engine
    // has scheduled those arrivals, the one time it reads a row.
    const std::uint64_t release_through = lowerBoundArrival(released_, now);
    if (release_through > released_) {
        // Consume each released request's arrival-index slot, reading the
        // function column *before* its pages are dropped (they are still
        // resident: the replay just consumed them).  A page goes with
        // its last live slot; the planner keeps pages the section shares.
        // TraceImage::open checked that each function has one slot per
        // row, so a slot never leaves its function's range.
        for (std::uint64_t i = released_; i < release_through; ++i) {
            const std::uint32_t fn = functions_[i];
            const std::uint64_t slot =
                index_offsets_[fn] + index_consumed_[fn]++;
            const std::uint64_t page = planner_.indexPageOf(slot);
            if (--index_page_live_[page] == 0) {
                planner_.planIndexRelease(
                    planner_.firstIndexSlotOn(page),
                    std::min(planner_.firstIndexSlotOn(page + 1),
                             request_count_),
                    spans_);
            }
        }
        planner_.planRelease(released_, release_through, spans_);
        released_ = release_through;
    }
    applySpans();
}

} // namespace cidre::trace

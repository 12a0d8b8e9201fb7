/**
 * @file
 * TraceView: a zero-copy, read-only view over a sealed workload.
 *
 * Every consumer of a workload — the engines, the analysis library, the
 * transforms, the benches — reads the same four things: the function
 * profile table, the three request columns (function, arrival, exec)
 * and the per-function arrival index.  TraceView exposes exactly that
 * surface over either backing store:
 *
 *  - an in-memory trace::Trace (the request log is an array of
 *    structs; the view strides over it), or
 *  - a memory-mapped trace image (trace::TraceImage; the columns are
 *    contiguous structure-of-arrays spans straight off the file pages).
 *
 * A view is a borrowed value type — 2 pointers per column plus a few
 * cached scalars, trivially copyable, safe to hand to every trial and
 * cell of a sweep concurrently.  It never owns or copies request data,
 * so the backing Trace or TraceImage must outlive every view over it
 * (and must not be moved: a move relocates the members the view points
 * at).
 */

#ifndef CIDRE_TRACE_TRACE_VIEW_H
#define CIDRE_TRACE_TRACE_VIEW_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "sim/time.h"
#include "trace/trace.h"

namespace cidre::trace {

/**
 * One request attribute as a strided sequence: base + i*stride.
 *
 * Over a Trace the stride is sizeof(Request) (struct-of-arrays view of
 * an array-of-structs); over a TraceImage it is sizeof(T) (a dense
 * column).  Loads go through memcpy, which compiles to a plain load —
 * the branch on backing store is paid once at view construction, never
 * per access.
 */
template <typename T>
class TraceColumn
{
  public:
    TraceColumn() = default;
    TraceColumn(const void *base, std::size_t stride)
        : base_(static_cast<const std::byte *>(base)), stride_(stride)
    {
    }

    T operator[](std::uint64_t i) const
    {
        T value;
        std::memcpy(&value, base_ + i * stride_, sizeof(T));
        return value;
    }

  private:
    const std::byte *base_ = nullptr;
    std::size_t stride_ = 0;
};

/** Read-only view of a sealed workload; see the file comment. */
class TraceView
{
  public:
    /** An unbound view; valid() is false and accessors are undefined. */
    TraceView() = default;

    /**
     * View an in-memory trace.  Implicit on purpose: every API that
     * takes a TraceView keeps accepting a Trace lvalue unchanged.
     * @throws std::invalid_argument if the trace is not sealed.
     */
    TraceView(const Trace &trace); // NOLINT(google-explicit-constructor)

    /** Column pointers of a loaded trace image (loader use). */
    struct Columns
    {
        std::span<const FunctionProfile> functions;
        const std::uint32_t *function = nullptr;
        const sim::SimTime *arrival_us = nullptr;
        const sim::SimTime *exec_us = nullptr;
        std::uint64_t request_count = 0;
        /** functionCount()+1 exclusive prefix offsets into values. */
        const std::uint64_t *index_offsets = nullptr;
        /** Arrival timestamps grouped by function, each run ascending. */
        const sim::SimTime *index_values = nullptr;
    };

    /** View raw columns (TraceImage::view() builds one of these). */
    explicit TraceView(const Columns &columns);

    /** True once bound to a backing store (default views are not). */
    bool valid() const { return bound_; }

    std::span<const FunctionProfile> functions() const { return functions_; }
    const FunctionProfile &function(FunctionId id) const
    {
        return functions_[id];
    }
    std::size_t functionCount() const { return functions_.size(); }

    std::uint64_t requestCount() const { return request_count_; }
    bool empty() const { return request_count_ == 0; }

    /** Timestamp of the last arrival (0 for an empty trace). */
    sim::SimTime duration() const { return duration_; }

    FunctionId requestFunction(std::uint64_t i) const
    {
        return function_col_[i];
    }
    sim::SimTime arrivalUs(std::uint64_t i) const { return arrival_col_[i]; }
    sim::SimTime execUs(std::uint64_t i) const { return exec_col_[i]; }

    /** Sorted arrival timestamps of one function (the seal()-time index). */
    std::span<const sim::SimTime> arrivalsOf(FunctionId id) const
    {
        if (nested_arrivals_ != nullptr) {
            const auto &arrivals = (*nested_arrivals_)[id];
            return {arrivals.data(), arrivals.size()};
        }
        return {index_values_ + index_offsets_[id],
                static_cast<std::size_t>(index_offsets_[id + 1] -
                                         index_offsets_[id])};
    }

    /** Per-function request counts (derived from the arrival index). */
    std::vector<std::uint64_t> requestCountByFunction() const;

    /** Compute the Table-1 statistics over 1-second buckets. */
    TraceStats computeStats() const;

  private:
    std::span<const FunctionProfile> functions_;
    TraceColumn<FunctionId> function_col_;
    TraceColumn<sim::SimTime> arrival_col_;
    TraceColumn<sim::SimTime> exec_col_;
    std::uint64_t request_count_ = 0;
    sim::SimTime duration_ = 0;
    bool bound_ = false;

    /** Trace backing: the eager nested index (nullptr for images). */
    const std::vector<std::vector<sim::SimTime>> *nested_arrivals_ = nullptr;
    /** Image backing: flat offsets/values (unused for traces). */
    const std::uint64_t *index_offsets_ = nullptr;
    const sim::SimTime *index_values_ = nullptr;
};

} // namespace cidre::trace

#endif // CIDRE_TRACE_TRACE_VIEW_H

/**
 * @file
 * Discrete-event simulation core: a time-ordered queue of plain event
 * records.
 *
 * An event is a trivially copyable record: its time, a sequence
 * number, and a kind with two operand words (for the engine, a
 * function or container id and an exec time).  The queue only orders records;
 * it never runs anything.  The owner pops the earliest record and
 * dispatches on its kind: core::Engine switches over its four kinds in
 * one place.  Dispatch stays with the engine because only the engine
 * knows what a kind means; the queue then holds plain data, so a
 * checkpoint saves the pending records as they are and rebuilds
 * nothing on load.
 *
 * Events with the same time pop in FIFO order of scheduling: every
 * record takes the next sequence number, and (when, seq) is the total
 * order, which keeps every simulation deterministic.  There is no
 * cancel: an event, once scheduled, is popped.
 *
 * The pending records form a 4-ary heap in one vector, plus a one-slot
 * lane beside it for the single event scheduled with a reserved
 * sequence number (scheduleReserved()).  The engine schedules every
 * arrival that way, and arrivals come in time order, so a third of the
 * events never enter the heap.  pop(), peekTime() and empty() take the
 * earlier of the lane and the heap top on (when, seq), which is the
 * order one heap holding both would give.  schedule and pop allocate
 * nothing once the vector has grown to the simulation's high-water
 * mark.
 *
 * A push sifts the new record up.  A pop refills the root by Floyd's
 * hole descent: the hole walks down the earliest child to a leaf, and
 * the heap's last record, which belongs near the bottom, is sifted up
 * from there: three comparisons per level where a sift down takes
 * four.  Since (when, seq) is a total order, the pop sequence is the
 * same whichever way the heap is arranged; only the order of pending()
 * (and of a checkpoint's records) depends on it.
 */

#ifndef CIDRE_SIM_EVENT_QUEUE_H
#define CIDRE_SIM_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/time.h"

namespace cidre::sim {

class StateReader;
class StateWriter;

/** One scheduled event; its meaning is the owner's (see kind). */
struct Event
{
    SimTime when = 0;
    /** FIFO tie-break among equal times (see EventQueue::reserveSeq). */
    std::uint64_t seq = 0;
    std::uint32_t kind = 0;
    std::uint32_t a = 0;
    std::uint64_t b = 0;
};
static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) == 32,
              "events are checkpointed as raw 32-byte records");

/**
 * A time-ordered queue of Event records.
 *
 * Typical use:
 * @code
 *   EventQueue queue;
 *   queue.schedule(msec(5), kTick);
 *   while (!queue.empty())
 *       handle(queue.pop());
 * @endcode
 */
class EventQueue
{
  public:
    /**
     * Schedule an event at absolute time @p when.  @p when must not be
     * earlier than now(); scheduling "in the past" indicates a logic
     * bug and throws.
     */
    void schedule(SimTime when, std::uint32_t kind, std::uint32_t a = 0,
                  std::uint64_t b = 0);

    /** Schedule an event @p delay after the current time. */
    void scheduleAfter(SimTime delay, std::uint32_t kind,
                       std::uint32_t a = 0, std::uint64_t b = 0)
    {
        schedule(now_ + delay, kind, a, b);
    }

    /**
     * Reserve the next sequence number without scheduling anything.
     *
     * The FIFO tie-break among equal-time events is the allocation
     * order of sequence numbers, so a caller that *knows* an event is
     * coming — but not yet its payload — can claim the event's place in
     * line now and schedule it later with scheduleReserved().  This is
     * what lets a stream-driven engine admit requests one at a time yet
     * replay the exact event interleaving of a trace-driven run: the
     * arrival's place in the total order is reserved at the same
     * program point where trace mode would have scheduled it.
     *
     * An unused reservation merely shifts every later sequence number
     * up by one, which cannot change the relative order of
     * subsequently scheduled events.
     */
    std::uint64_t reserveSeq() { return next_seq_++; }

    /**
     * schedule() with a sequence number from reserveSeq(): the event's
     * position among equal-time events is @p seq's allocation point,
     * not the present.  Each reservation can be spent at most once
     * (enforced only by the caller).  The event waits in the reserved
     * lane, which holds one: scheduling a second reserved event while
     * the first is still pending throws std::logic_error.
     */
    void scheduleReserved(SimTime when, std::uint64_t seq,
                          std::uint32_t kind, std::uint32_t a = 0,
                          std::uint64_t b = 0);

    /** True if no event is pending. */
    bool empty() const { return heap_.empty() && !lane_full_; }

    /** Time of the next event, or kTimeInfinity when empty. */
    SimTime peekTime() const
    {
        if (lanePopsFirst())
            return lane_.when;
        return heap_.empty() ? kTimeInfinity : heap_.front().when;
    }

    /**
     * Remove and return the earliest event, advancing the clock to its
     * time.  Throws std::logic_error when empty.
     */
    Event pop();

    /**
     * Advance the clock to @p when if it is behind, as a driver does
     * after popping every event up to a deadline.  Events may then only
     * be scheduled at or after @p when.
     */
    void advanceTo(SimTime when)
    {
        if (now_ < when)
            now_ = when;
    }

    /** Current simulated time (see pop() and advanceTo()). */
    SimTime now() const { return now_; }

    /**
     * Time of the most recently popped event (0 before any).  Unlike
     * now(), never moved by advanceTo(), so a run stepped to a deadline
     * past its last event still reports when that event happened.
     */
    SimTime lastEventTime() const { return last_event_; }

    /** Number of events popped since construction. */
    std::uint64_t executedCount() const { return executed_; }

    /**
     * The heap's pending events, in heap order (not pop order).  A
     * reserved event waiting in the lane is not among them; right
     * after loadState() the lane is empty, so this is every pending
     * event.
     */
    const std::vector<Event> &pending() const { return heap_; }

    // ---- checkpoint/restore ---------------------------------------------

    /**
     * Serialize the clock, the counters and every pending event: the
     * lane's record and the heap's, as one vector.
     */
    void saveState(StateWriter &writer) const;

    /**
     * Restore state saved by saveState(), replacing the queue's entire
     * contents.  Every restored record goes into the heap and the lane
     * starts empty.  Throws std::runtime_error when a pending event
     * lies before the clock or carries a sequence number that was never
     * handed out.  The restored queue pops the exact remaining sequence
     * of the original.
     */
    void loadState(StateReader &reader);

  private:
    static bool earlier(const Event &x, const Event &y)
    {
        if (x.when != y.when)
            return x.when < y.when;
        return x.seq < y.seq;
    }

    /** True when the lane holds the earliest pending event. */
    bool lanePopsFirst() const
    {
        return lane_full_ && (heap_.empty() || earlier(lane_, heap_.front()));
    }

    void push(const Event &event);
    /** Place @p event at @p index or above it. */
    void siftUp(std::size_t index, Event event);
    /** Move heap_[index] down to its place (the load-time heapify). */
    void siftDown(std::size_t index);
    /** Refill the root after a pop with @p last, the removed bottom. */
    void refillRoot(Event last);

    /** 4-ary min-heap on (when, seq). */
    std::vector<Event> heap_;
    /** The reserved lane: one event from scheduleReserved(). */
    Event lane_;
    bool lane_full_ = false;
    SimTime now_ = 0;
    SimTime last_event_ = 0; //!< see lastEventTime()
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
};

} // namespace cidre::sim

#endif // CIDRE_SIM_EVENT_QUEUE_H

#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>

#include "sim/serialize.h"

namespace cidre::sim {

void
EventQueue::siftUp(std::size_t index, Event event)
{
    while (index > 0) {
        const std::size_t parent = (index - 1) / 4;
        if (!earlier(event, heap_[parent]))
            break;
        heap_[index] = heap_[parent];
        index = parent;
    }
    heap_[index] = event;
}

void
EventQueue::siftDown(std::size_t index)
{
    const std::size_t size = heap_.size();
    const Event event = heap_[index];
    for (;;) {
        const std::size_t first = index * 4 + 1;
        if (first >= size)
            break;
        const std::size_t last = std::min(first + 4, size);
        std::size_t best = first;
        for (std::size_t child = first + 1; child < last; ++child) {
            if (earlier(heap_[child], heap_[best]))
                best = child;
        }
        if (!earlier(heap_[best], event))
            break;
        heap_[index] = heap_[best];
        index = best;
    }
    heap_[index] = event;
}

void
EventQueue::refillRoot(Event last)
{
    // Floyd's hole descent: the record taken from the bottom belongs
    // near the bottom again, so walk the root's hole down the earliest
    // child to a leaf (three comparisons a level, none against the
    // record), then sift the record up from there.
    const std::size_t size = heap_.size();
    std::size_t hole = 0;
    for (;;) {
        const std::size_t first = hole * 4 + 1;
        if (first >= size)
            break;
        const std::size_t last_child = std::min(first + 4, size);
        std::size_t best = first;
        for (std::size_t child = first + 1; child < last_child; ++child) {
            if (earlier(heap_[child], heap_[best]))
                best = child;
        }
        heap_[hole] = heap_[best];
        hole = best;
    }
    siftUp(hole, last);
}

void
EventQueue::push(const Event &event)
{
    if (event.when < now_)
        throw std::logic_error("EventQueue: scheduling into the past");
    heap_.push_back(event);
    siftUp(heap_.size() - 1, event);
}

void
EventQueue::schedule(SimTime when, std::uint32_t kind, std::uint32_t a,
                     std::uint64_t b)
{
    push(Event{when, next_seq_, kind, a, b});
    ++next_seq_;
}

void
EventQueue::scheduleReserved(SimTime when, std::uint64_t seq,
                             std::uint32_t kind, std::uint32_t a,
                             std::uint64_t b)
{
    if (seq == 0 || seq >= next_seq_)
        throw std::logic_error(
            "EventQueue: sequence number was never reserved");
    if (lane_full_)
        throw std::logic_error(
            "EventQueue: a reserved event is already pending");
    if (when < now_)
        throw std::logic_error("EventQueue: scheduling into the past");
    lane_ = Event{when, seq, kind, a, b};
    lane_full_ = true;
}

Event
EventQueue::pop()
{
    Event top;
    if (lanePopsFirst()) {
        top = lane_;
        lane_full_ = false;
    } else {
        if (heap_.empty())
            throw std::logic_error("EventQueue: pop from an empty queue");
        top = heap_.front();
        const Event last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            refillRoot(last);
    }
    now_ = top.when;
    last_event_ = top.when;
    ++executed_;
    return top;
}

void
EventQueue::saveState(StateWriter &writer) const
{
    writer.put(now_);
    writer.put(last_event_);
    writer.put(next_seq_);
    writer.put(executed_);
    // The layout of putVector(): a count, then the raw records.
    writer.put<std::uint64_t>(heap_.size() + (lane_full_ ? 1 : 0));
    if (!heap_.empty())
        writer.putBytes(heap_.data(), heap_.size() * sizeof(Event));
    if (lane_full_)
        writer.put(lane_);
}

void
EventQueue::loadState(StateReader &reader)
{
    now_ = reader.get<SimTime>();
    last_event_ = reader.get<SimTime>();
    next_seq_ = reader.get<std::uint64_t>();
    executed_ = reader.get<std::uint64_t>();
    heap_ = reader.getVector<Event>();
    lane_full_ = false;
    for (const Event &event : heap_) {
        if (event.when < now_ || event.seq == 0 || event.seq >= next_seq_)
            throw std::runtime_error(
                "EventQueue: corrupt checkpointed event");
    }
    // A saved heap is already in heap order; only a lane record saved
    // after it, or a payload whose order was tampered with, moves.
    if (heap_.size() > 1) {
        for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;)
            siftDown(i);
    }
}

} // namespace cidre::sim

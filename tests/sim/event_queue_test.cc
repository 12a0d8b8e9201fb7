/**
 * @file
 * Unit tests for the discrete-event queue: time order, the FIFO
 * tie-break, reserved sequence numbers and clock handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"

namespace cidre::sim {
namespace {

constexpr std::uint32_t kLabel = 1; //!< b carries a test label

/** Pop every event, returning the labels in pop order. */
std::vector<std::uint64_t>
drain(EventQueue &queue)
{
    std::vector<std::uint64_t> labels;
    while (!queue.empty())
        labels.push_back(queue.pop().b);
    return labels;
}

/**
 * Pop every event at or before @p deadline, then advance the clock to
 * it (what Engine::stepUntil does).  @p onPop may schedule more events.
 */
template <typename OnPop>
std::size_t
runUntil(EventQueue &queue, SimTime deadline, OnPop onPop)
{
    std::size_t count = 0;
    for (; !queue.empty() && queue.peekTime() <= deadline; ++count)
        onPop(queue.pop());
    queue.advanceTo(deadline);
    return count;
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue queue;
    queue.schedule(msec(30), kLabel, 0, 3);
    queue.schedule(msec(10), kLabel, 0, 1);
    queue.schedule(msec(20), kLabel, 0, 2);
    EXPECT_EQ(drain(queue), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(queue.now(), msec(30));
}

TEST(EventQueue, FifoAmongEqualTimes)
{
    EventQueue queue;
    for (std::uint64_t i = 0; i < 5; ++i)
        queue.schedule(msec(10), kLabel, 0, i);
    EXPECT_EQ(drain(queue), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, FifoTieBreakProperty)
{
    // Many events over few distinct timestamps: the popped order must
    // equal a stable sort of the schedule order by timestamp.
    EventQueue queue;
    std::mt19937_64 rng(7);
    std::uniform_int_distribution<SimTime> pick_time(0, 9);

    struct Scheduled
    {
        SimTime when;
        std::uint64_t index;
    };
    std::vector<Scheduled> scheduled;
    constexpr std::uint64_t kEvents = 2000;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
        const SimTime when = msec(pick_time(rng));
        scheduled.push_back({when, i});
        queue.schedule(when, kLabel, 0, i);
    }
    const std::vector<std::uint64_t> executed = drain(queue);
    EXPECT_EQ(executed.size(), kEvents);

    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const Scheduled &a, const Scheduled &b) {
                         return a.when < b.when;
                     });
    ASSERT_EQ(executed.size(), scheduled.size());
    for (std::size_t i = 0; i < scheduled.size(); ++i)
        EXPECT_EQ(executed[i], scheduled[i].index) << "position " << i;
}

TEST(EventQueue, PopCarriesTheScheduledRecord)
{
    EventQueue queue;
    queue.schedule(sec(2), 4, 7, 99);
    const Event event = queue.pop();
    EXPECT_EQ(event.when, sec(2));
    EXPECT_EQ(event.kind, 4u);
    EXPECT_EQ(event.a, 7u);
    EXPECT_EQ(event.b, 99u);
    EXPECT_EQ(queue.now(), sec(2));
    EXPECT_EQ(queue.lastEventTime(), sec(2));
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue queue;
    queue.schedule(msec(5), kLabel);
    queue.pop();
    queue.scheduleAfter(msec(7), kLabel);
    EXPECT_EQ(queue.pop().when, msec(12));
}

TEST(EventQueue, RejectsPastScheduling)
{
    EventQueue queue;
    queue.schedule(msec(10), kLabel);
    queue.pop();
    EXPECT_THROW(queue.schedule(msec(5), kLabel), std::logic_error);
}

TEST(EventQueue, RunUntilAdvancesClock)
{
    EventQueue queue;
    int ran = 0;
    queue.schedule(msec(10), kLabel);
    queue.schedule(msec(30), kLabel);
    EXPECT_EQ(runUntil(queue, msec(20), [&](const Event &) { ++ran; }), 1u);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(queue.now(), msec(20));
    EXPECT_EQ(queue.lastEventTime(), msec(10));
    EXPECT_EQ(queue.peekTime(), msec(30));
}

TEST(EventQueue, DrainUnderRunUntil)
{
    // Events that keep scheduling below the deadline all pop within
    // one runUntil call; the clock then rests exactly at the deadline.
    EventQueue queue;
    int ticks = 0;
    const auto tick = [&](const Event &) {
        ++ticks;
        if (ticks < 10)
            queue.scheduleAfter(msec(1), kLabel);
    };
    queue.schedule(msec(1), kLabel);
    const std::size_t ran = runUntil(queue, msec(100), tick);
    EXPECT_EQ(ran, 10u);
    EXPECT_EQ(ticks, 10);
    EXPECT_EQ(queue.now(), msec(100));
    EXPECT_TRUE(queue.empty());

    // An event beyond the deadline stays pending.
    bool later = false;
    queue.schedule(msec(200), kLabel);
    runUntil(queue, msec(150), [&](const Event &) { later = true; });
    EXPECT_FALSE(later);
    EXPECT_EQ(queue.pending().size(), 1u);
    runUntil(queue, kTimeInfinity, [&](const Event &) { later = true; });
    EXPECT_TRUE(later);
}

TEST(EventQueue, PeekEmptyIsInfinity)
{
    EventQueue queue;
    EXPECT_EQ(queue.peekTime(), kTimeInfinity);
    EXPECT_TRUE(queue.empty());
    EXPECT_THROW(queue.pop(), std::logic_error);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue queue;
    int depth = 0;
    queue.schedule(0, kLabel);
    while (!queue.empty()) {
        queue.pop();
        if (++depth < 100)
            queue.scheduleAfter(usec(1), kLabel);
    }
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(queue.executedCount(), 100u);
}

TEST(EventQueue, ReservedSequenceKeepsItsPlaceInLine)
{
    // A reservation taken before two equal-time events pops ahead of
    // them, although its event is scheduled after them.
    EventQueue queue;
    const std::uint64_t seq = queue.reserveSeq();
    queue.schedule(msec(5), kLabel, 0, 1);
    queue.schedule(msec(5), kLabel, 0, 2);
    queue.scheduleReserved(msec(5), seq, kLabel, 0, 0);
    EXPECT_EQ(drain(queue), (std::vector<std::uint64_t>{0, 1, 2}));

    EXPECT_THROW(queue.scheduleReserved(msec(6), 0, kLabel),
                 std::logic_error);
    EXPECT_THROW(queue.scheduleReserved(msec(6), queue.reserveSeq() + 1,
                                        kLabel),
                 std::logic_error);
}

TEST(EventQueue, ReservedLaneTakesItsPlaceOnWhenThenSeq)
{
    // The reserved event waits beside the heap, yet pops after the
    // equal-time event scheduled before its reservation and ahead of the
    // one scheduled after it.
    EventQueue queue;
    queue.schedule(msec(5), kLabel, 0, 1);
    const std::uint64_t seq = queue.reserveSeq();
    queue.schedule(msec(5), kLabel, 0, 3);
    queue.schedule(msec(4), kLabel, 0, 0);
    queue.scheduleReserved(msec(5), seq, kLabel, 0, 2);
    EXPECT_EQ(queue.peekTime(), msec(4));
    EXPECT_EQ(drain(queue), (std::vector<std::uint64_t>{0, 1, 2, 3}));

    // Alone, the lane is the whole queue.
    queue.scheduleReserved(msec(7), queue.reserveSeq(), kLabel, 0, 9);
    EXPECT_FALSE(queue.empty());
    EXPECT_EQ(queue.peekTime(), msec(7));
    EXPECT_TRUE(queue.pending().empty());
    EXPECT_EQ(queue.pop().b, 9u);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.peekTime(), kTimeInfinity);
    EXPECT_EQ(queue.executedCount(), 5u);
}

TEST(EventQueue, SecondOutstandingReservationThrows)
{
    EventQueue queue;
    const std::uint64_t first = queue.reserveSeq();
    const std::uint64_t second = queue.reserveSeq();
    queue.scheduleReserved(msec(1), first, kLabel, 0, 1);
    EXPECT_THROW(queue.scheduleReserved(msec(2), second, kLabel, 0, 2),
                 std::logic_error);

    // Once the first has popped, the lane takes the next one, but not
    // one in the past.
    EXPECT_EQ(queue.pop().b, 1u);
    EXPECT_THROW(queue.scheduleReserved(0, second, kLabel, 0, 2),
                 std::logic_error);
    queue.scheduleReserved(msec(2), second, kLabel, 0, 2);
    EXPECT_EQ(drain(queue), (std::vector<std::uint64_t>{2}));
}

} // namespace
} // namespace cidre::sim

/**
 * @file
 * Proves the event queue's zero-allocation steady state: once the heap
 * has grown to a workload's high-water mark, the schedule → pop →
 * reschedule cycle performs no heap allocation.
 *
 * The proof instruments the global allocator (see alloc_counter.cc —
 * the counting operator new/delete replacements are program-wide, hence
 * this test's own binary) and asserts that the allocation counter does
 * not move across a long steady-state phase.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/event_queue.h"
#include "tests/sim/alloc_counter.h"

namespace cidre::sim {
namespace {

TEST(EventQueueAlloc, SteadyStateScheduleFireIsAllocationFree)
{
    EventQueue queue;

    // Warm-up: grow the heap to the high-water mark the steady state
    // will need — kPending concurrent events.
    constexpr int kPending = 64;
    for (int i = 0; i < kPending; ++i)
        queue.schedule(msec(10 + i), 1, 0, static_cast<std::uint64_t>(i));
    while (!queue.empty())
        queue.pop();

    // Steady state: every popped event schedules its successor (the
    // engine's arrival-chain/completion shape).
    const std::uint64_t before =
        cidre::test::allocationCount();

    std::uint64_t chain = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < kPending / 2; ++i) {
            queue.scheduleAfter(msec(1 + i), 1, 0,
                                static_cast<std::uint64_t>(i));
        }
        const SimTime deadline = queue.now() + sec(1);
        while (!queue.empty() && queue.peekTime() <= deadline)
            chain += queue.pop().b + 1;
        queue.advanceTo(deadline);
    }

    const std::uint64_t after =
        cidre::test::allocationCount();
    EXPECT_EQ(after - before, 0u)
        << "schedule/pop steady state must not allocate";
    EXPECT_GT(chain, 0u);
    EXPECT_GT(queue.executedCount(), 1000u);
}

} // namespace
} // namespace cidre::sim

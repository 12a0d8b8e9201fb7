/**
 * @file
 * EventQueue checkpoint/restore: a queue saved mid-run and restored
 * must pop the exact remaining event sequence of the original —
 * timestamps, FIFO ties and payloads included.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/event_queue.h"
#include "sim/serialize.h"

namespace cidre::sim {
namespace {

using Fired = std::vector<std::tuple<std::uint32_t, std::uint64_t, SimTime>>;

/** Pop every event, logging (kind, b, fire time). */
Fired
drainLogged(EventQueue &queue)
{
    Fired log;
    while (!queue.empty()) {
        const Event event = queue.pop();
        log.emplace_back(event.kind, event.b, queue.now());
    }
    return log;
}

std::vector<std::byte>
saved(const EventQueue &queue)
{
    StateWriter writer;
    queue.saveState(writer);
    return writer.release();
}

TEST(EventQueueState, RoundTripReplaysRemainingEventsExactly)
{
    EventQueue queue;
    // A mix of times including FIFO ties at t=300.
    queue.schedule(100, 1, 0, 10);
    queue.schedule(300, 2, 0, 20);
    queue.schedule(300, 3, 0, 30);
    queue.schedule(500, 4, 0, 40);

    ASSERT_EQ(queue.pop().b, 10u); // consume the t=100 event
    queue.advanceTo(200);

    const std::vector<std::byte> bytes = saved(queue);
    EventQueue restored;
    StateReader reader(bytes);
    restored.loadState(reader);

    EXPECT_EQ(restored.now(), queue.now());
    EXPECT_EQ(restored.executedCount(), queue.executedCount());
    EXPECT_EQ(restored.pending().size(), queue.pending().size());

    const Fired original_log = drainLogged(queue);
    const Fired restored_log = drainLogged(restored);
    ASSERT_EQ(original_log.size(), 3u);
    EXPECT_EQ(restored_log, original_log);
    EXPECT_EQ(restored.now(), queue.now());
    EXPECT_EQ(restored.executedCount(), queue.executedCount());
}

TEST(EventQueueState, RestoredQueueKeepsSchedulingDeterministically)
{
    // Post-restore scheduling must interleave with restored events the
    // same way it would have in the original queue.
    EventQueue queue;
    queue.schedule(100, 1, 0, 1);
    queue.schedule(200, 1, 0, 2);

    const std::vector<std::byte> bytes = saved(queue);
    EventQueue restored;
    StateReader reader(bytes);
    restored.loadState(reader);

    // Same new event added to both; ties at t=200 must resolve FIFO
    // with the restored event first (it was scheduled first).
    queue.schedule(200, 1, 0, 3);
    restored.schedule(200, 1, 0, 3);
    EXPECT_EQ(drainLogged(restored), drainLogged(queue));
}

TEST(EventQueueState, PendingReservedEventSurvivesSaveAndLoad)
{
    // The reserved event is saved with the heap's records; the restored
    // queue holds all of them in its heap and pops the same sequence.
    EventQueue queue;
    queue.schedule(100, 1, 0, 1);
    const std::uint64_t seq = queue.reserveSeq();
    queue.schedule(300, 1, 0, 3);
    queue.schedule(200, 1, 0, 2);
    queue.scheduleReserved(300, seq, 1, 0, 30);
    ASSERT_EQ(queue.pop().b, 1u);

    const std::vector<std::byte> bytes = saved(queue);
    EventQueue restored;
    StateReader reader(bytes);
    restored.loadState(reader);
    EXPECT_EQ(restored.pending().size(), 3u);
    EXPECT_EQ(restored.peekTime(), queue.peekTime());

    // A later event at the tied time queues behind both in each.
    queue.schedule(300, 1, 0, 4);
    restored.schedule(300, 1, 0, 4);
    const Fired original_log = drainLogged(queue);
    EXPECT_EQ(drainLogged(restored), original_log);
    EXPECT_EQ(original_log,
              (Fired{{1, 2, 200}, {1, 30, 300}, {1, 3, 300}, {1, 4, 300}}));
    EXPECT_EQ(restored.executedCount(), queue.executedCount());

    // The restored lane starts empty, so it takes a new reservation.
    restored.scheduleReserved(400, restored.reserveSeq(), 1, 0, 5);
    EXPECT_EQ(restored.pop().b, 5u);
}

TEST(EventQueueState, CorruptPendingEventRefusesToLoad)
{
    // Payload layout: now, last event, next seq, executed, then the
    // event vector (u64 count + 32-byte records).
    EventQueue queue;
    queue.schedule(100, 1, 0, 1);
    queue.pop();
    queue.schedule(200, 1, 0, 2);
    const std::vector<std::byte> good = saved(queue);
    constexpr std::size_t kFirstEvent = 5 * sizeof(std::uint64_t);

    const auto loads = [](std::vector<std::byte> bytes) {
        EventQueue restored;
        StateReader reader(bytes);
        restored.loadState(reader);
    };
    EXPECT_NO_THROW(loads(good));

    // An event before the restored clock.
    std::vector<std::byte> past = good;
    const SimTime early = 50;
    std::memcpy(past.data() + kFirstEvent + offsetof(Event, when), &early,
                sizeof early);
    EXPECT_THROW(loads(past), std::runtime_error);

    // A sequence number that was never handed out.
    for (const std::uint64_t seq : {std::uint64_t{0}, std::uint64_t{3}}) {
        std::vector<std::byte> unseen = good;
        std::memcpy(unseen.data() + kFirstEvent + offsetof(Event, seq),
                    &seq, sizeof seq);
        EXPECT_THROW(loads(unseen), std::runtime_error) << "seq " << seq;
    }
}

} // namespace
} // namespace cidre::sim

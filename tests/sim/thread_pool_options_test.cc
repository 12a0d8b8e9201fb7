/**
 * @file
 * ThreadPool configuration tests: the pin list (best-effort, and exact
 * per-slot placement with the caller restored after each loop), serial
 * nested dispatch, and that every configuration still runs loops to
 * completion with each index claimed exactly once.  (Determinism across
 * thread counts is pinned by the runner and sharded-engine suites; this
 * file covers construction and placement.)
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "sim/thread_pool.h"
#include "sim/topology.h"

namespace cidre {
namespace {

/** Every index 0..count-1 claimed exactly once, any thread. */
void
expectCompleteLoop(sim::ThreadPool &pool, std::size_t count)
{
    std::vector<std::atomic<int>> claimed(count);
    pool.parallelFor(count, [&claimed](std::size_t index) {
        claimed[index].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(claimed[i].load(), 1) << "index " << i;
}

/** The calling thread's affinity mask, ascending (empty = unknown). */
std::vector<int>
currentMask()
{
    std::vector<int> cpus;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    }
#endif
    return cpus;
}

TEST(ThreadPoolOptions, DefaultsMatchTheLegacyConstructor)
{
    sim::ThreadPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3u);
    expectCompleteLoop(pool, 64);
}

TEST(ThreadPoolOptions, PinCpusIsBestEffortAndResultsNeutral)
{
    // Helpers pin themselves at spawn to pin_cpus[slot % size]; a
    // refused pin (sandbox, bogus id) degrades to unpinned.  Either
    // way the loop contract is untouched.
    const auto topology = sim::CpuTopology::detect();
    sim::ThreadPool pool(3, topology.pinOrder());
    expectCompleteLoop(pool, 100);
    EXPECT_LE(pool.pinnedHelpers(), 2u); // at most the helper count

    // No such CPU: every pin fails, every thread runs.
    sim::ThreadPool unpinnable(2, {1 << 20});
    expectCompleteLoop(unpinnable, 50);
    EXPECT_EQ(unpinnable.pinnedHelpers(), 0u);
}

TEST(ThreadPool, EverySlotRunsOnItsPinnedCpuAndTheCallerIsRestored)
{
    const std::vector<int> original = currentMask();
    if (original.empty())
        GTEST_SKIP() << "no affinity mask on this platform";
    {
        sim::ScopedAffinity probe(original.back());
        if (!probe.pinned())
            GTEST_SKIP() << "the kernel refuses sim::pinCurrentThread here";
    }
    ASSERT_EQ(currentMask(), original);

    // CPUs this process may use, highest first (so slot 0 is not simply
    // the first allowed CPU), one fewer than the threads so the last
    // slot wraps onto pin_cpus[0].
    std::vector<int> pins(original.rbegin(), original.rend());
    if (pins.size() > 3)
        pins.resize(3);
    const auto threads = static_cast<unsigned>(pins.size() + 1);
    sim::ThreadPool pool(threads, pins);

    for (int round = 0; round < 3; ++round) {
        // Each body holds its thread until every slot has started one,
        // so each of the pool's threads runs exactly one index.
        std::atomic<unsigned> started{0};
        std::vector<std::vector<int>> mask_of_slot(threads);
        pool.parallelFor(threads, [&](std::size_t, unsigned slot) {
            mask_of_slot[slot] = currentMask();
            started.fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (started.load() < threads &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
        });
        for (unsigned slot = 0; slot < threads; ++slot) {
            EXPECT_EQ(mask_of_slot[slot],
                      std::vector<int>{pins[slot % pins.size()]})
                << "slot " << slot << ", round " << round;
        }
        EXPECT_EQ(currentMask(), original) << "round " << round;
    }
}

TEST(ThreadPool, NestedDispatchRunsSeriallyInsteadOfDeadlocking)
{
    sim::ThreadPool pool(2);
    std::atomic<std::uint64_t> inner_sum{0};
    pool.parallelFor(2, [&](std::size_t) {
        pool.parallelFor(8, [&](std::size_t inner) {
            inner_sum.fetch_add(inner + 1, std::memory_order_relaxed);
        });
    });
    // Two outer bodies each ran the 8-index inner loop: 2 * 36.
    EXPECT_EQ(inner_sum.load(), 72u);
}

} // namespace
} // namespace cidre

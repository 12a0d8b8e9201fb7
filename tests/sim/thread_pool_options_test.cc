/**
 * @file
 * ThreadPool configuration tests: the spin-then-park budget knob, the
 * helper-affinity option, serial nested dispatch, and that every
 * configuration still runs loops to completion with each index claimed
 * exactly once.  (Determinism across thread counts is pinned by the
 * runner and sharded-engine suites; this file covers the knobs.)
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

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

TEST(ThreadPoolOptions, DefaultsMatchTheLegacyConstructor)
{
    sim::ThreadPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3u);
    EXPECT_EQ(pool.spinIterations(), sim::kDefaultPoolSpin);
    expectCompleteLoop(pool, 64);
}

TEST(ThreadPoolOptions, ZeroSpinParksImmediatelyAndStillCompletes)
{
    sim::ThreadPool pool(sim::ThreadPoolOptions{4, 0, {}});
    EXPECT_EQ(pool.spinIterations(), 0u);
    // Repeated dispatches force the helpers through park/wake cycles.
    for (int round = 0; round < 20; ++round)
        expectCompleteLoop(pool, 33);
}

TEST(ThreadPoolOptions, LargeSpinBudgetStillCompletes)
{
    sim::ThreadPool pool(sim::ThreadPoolOptions{2, 1u << 22, {}});
    for (int round = 0; round < 20; ++round)
        expectCompleteLoop(pool, 7);
}

TEST(ThreadPoolOptions, PinCpusIsBestEffortAndResultsNeutral)
{
    // Helpers pin themselves at spawn to pin_cpus[slot % size]; a
    // refused pin (sandbox, bogus id) degrades to unpinned.  Either
    // way the loop contract is untouched.
    const auto topology = sim::CpuTopology::detect();
    sim::ThreadPoolOptions options;
    options.threads = 3;
    options.pin_cpus = topology.pinOrder();
    sim::ThreadPool pool(options);
    expectCompleteLoop(pool, 100);
    EXPECT_LE(pool.pinnedHelpers(), 2u); // at most the helper count

    sim::ThreadPoolOptions bogus;
    bogus.threads = 2;
    bogus.pin_cpus = {1 << 20}; // no such CPU: pin fails, helper runs
    sim::ThreadPool unpinnable(bogus);
    expectCompleteLoop(unpinnable, 50);
    EXPECT_EQ(unpinnable.pinnedHelpers(), 0u);
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

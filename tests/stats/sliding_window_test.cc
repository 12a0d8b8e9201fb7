/**
 * @file
 * Unit tests for the CSS sliding-window statistics.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "sim/serialize.h"
#include "stats/sliding_window.h"

namespace cidre::stats {
namespace {

using sim::minutes;
using sim::sec;

TEST(SlidingWindow, MedianOfRetained)
{
    SlidingWindow w(minutes(15));
    w.add(sec(1), 10.0);
    w.add(sec(2), 30.0);
    w.add(sec(3), 20.0);
    EXPECT_DOUBLE_EQ(w.median(), 20.0);
    EXPECT_DOUBLE_EQ(w.mean(), 20.0);
    EXPECT_EQ(w.count(), 3u);
}

TEST(SlidingWindow, ExpiresOldSamples)
{
    SlidingWindow w(minutes(1));
    w.add(sec(0), 100.0);
    w.add(sec(30), 200.0);
    w.add(sec(90), 300.0); // triggers expiry of the t=0 sample
    EXPECT_EQ(w.count(), 2u);
    // Nearest-rank median takes the upper of two retained samples.
    EXPECT_DOUBLE_EQ(w.median(), 300.0);
    w.expire(sec(300));
    EXPECT_TRUE(w.empty());
}

TEST(SlidingWindow, InfiniteHorizonKeepsAll)
{
    SlidingWindow w(sim::kTimeInfinity, 1000);
    for (int i = 0; i < 500; ++i)
        w.add(sec(i), static_cast<double>(i));
    EXPECT_EQ(w.count(), 500u);
}

TEST(SlidingWindow, CapDropsOldest)
{
    SlidingWindow w(sim::kTimeInfinity, 3);
    for (int i = 0; i < 10; ++i)
        w.add(sec(i), static_cast<double>(i));
    EXPECT_EQ(w.count(), 3u);
    EXPECT_DOUBLE_EQ(w.median(), 8.0); // retains {7, 8, 9}
}

TEST(SlidingWindow, PercentileEndpoints)
{
    SlidingWindow w(minutes(15));
    for (int i = 1; i <= 9; ++i)
        w.add(sec(i), static_cast<double>(i));
    EXPECT_DOUBLE_EQ(w.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(w.percentile(1.0), 9.0);
    EXPECT_DOUBLE_EQ(w.percentile(0.5), 5.0);
}

TEST(SlidingWindow, CachedQueryInvalidatedByAdd)
{
    SlidingWindow w(minutes(15));
    w.add(sec(1), 10.0);
    EXPECT_DOUBLE_EQ(w.median(), 10.0);
    w.add(sec(2), 50.0);
    w.add(sec(3), 60.0);
    EXPECT_DOUBLE_EQ(w.median(), 50.0);
}

TEST(SlidingWindow, LatestAndTimes)
{
    SlidingWindow w(minutes(15));
    w.add(sec(5), 1.0);
    w.add(sec(9), 2.0);
    EXPECT_DOUBLE_EQ(w.latest(), 2.0);
    EXPECT_EQ(w.earliestTime(), sec(5));
    EXPECT_EQ(w.latestTime(), sec(9));
}

TEST(SlidingWindow, ErrorsOnEmptyQueries)
{
    SlidingWindow w;
    EXPECT_THROW(w.percentile(0.5), std::logic_error);
    EXPECT_THROW(w.latest(), std::logic_error);
    EXPECT_THROW(w.earliestTime(), std::logic_error);
    EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

TEST(SlidingWindow, RejectsZeroCap)
{
    EXPECT_THROW(SlidingWindow(minutes(1), 0), std::invalid_argument);
}

TEST(SlidingWindow, LoadRejectsAForeignShapeBeforeAllocating)
{
    // Payload layout: horizon, cap, sum, count, samples.
    SlidingWindow w(minutes(15), 64);
    w.add(sec(1), 10.0);
    w.add(sec(2), 30.0);
    sim::StateWriter writer;
    w.saveState(writer);
    const std::vector<std::byte> good = writer.release();

    const auto loads = [](const std::vector<std::byte> &bytes) {
        SlidingWindow restored(minutes(15), 64);
        sim::StateReader reader(bytes);
        restored.loadState(reader);
        return restored.count();
    };
    EXPECT_EQ(loads(good), 2u);

    const auto patched = [&good](std::size_t at, std::uint64_t value) {
        std::vector<std::byte> bytes = good;
        std::memcpy(bytes.data() + at, &value, sizeof value);
        return bytes;
    };
    EXPECT_THROW(loads(patched(0, sec(1))), std::runtime_error);
    EXPECT_THROW(loads(patched(8, 65)), std::runtime_error);
    // A huge cap with a matching huge count must be refused by the
    // cap check, not reach the ring allocation.
    std::vector<std::byte> huge = patched(8, std::uint64_t{1} << 40);
    const std::uint64_t count = std::uint64_t{1} << 40;
    std::memcpy(huge.data() + 24, &count, sizeof count);
    EXPECT_THROW(loads(huge), std::runtime_error);
}

/** The percentiles the ranking tests compare. */
constexpr double kQuantiles[] = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0};

/** Expect @p b to answer every query exactly as @p a does. */
void
expectSameStatistics(const SlidingWindow &a, const SlidingWindow &b)
{
    ASSERT_EQ(b.count(), a.count());
    ASSERT_FALSE(a.empty());
    for (const double q : kQuantiles)
        EXPECT_EQ(b.percentile(q), a.percentile(q)) << "q " << q;
    // Bit-equal, not merely close: both sums saw the same operations.
    const double ma = a.mean();
    const double mb = b.mean();
    EXPECT_EQ(std::memcmp(&ma, &mb, sizeof ma), 0) << ma << " vs " << mb;
}

TEST(SlidingWindow, FirstRankAfterManyMutationsMatchesRankingThroughout)
{
    // Two windows see the same adds, horizon drops, cap drops and
    // expires.  One is ranked after every mutation (its companion is
    // maintained all along); the other is ranked only at the end (its
    // companion is built then, by sorting).  Values repeat, so ties
    // are exercised too.
    SlidingWindow eager(sec(30), 64);
    SlidingWindow lazy(sec(30), 64);
    std::uint64_t state = 7;
    const auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    sim::SimTime now = 0;
    const auto mutate = [&](int steps) {
        for (int i = 0; i < steps; ++i) {
            now += sim::msec(static_cast<std::int64_t>(next() % 900));
            if (next() % 10 == 0) {
                eager.expire(now);
                lazy.expire(now);
            } else {
                const double value =
                    static_cast<double>(next() % 50) * 0.125 + 1e-3;
                eager.add(now, value);
                lazy.add(now, value);
            }
            if (!eager.empty())
                (void)eager.percentile(0.5);
        }
    };

    mutate(2000);
    ASSERT_FALSE(eager.empty());
    expectSameStatistics(eager, lazy);

    // From its first read on, the lazy window maintains its companion.
    mutate(2000);
    ASSERT_FALSE(eager.empty());
    expectSameStatistics(eager, lazy);
}

TEST(SlidingWindow, RestoredWindowRanksLikeTheOriginal)
{
    // loadState restores the ring alone; the companion is built on the
    // restored window's first read and kept from then on.
    SlidingWindow original(sec(30), 64);
    for (int i = 0; i < 300; ++i)
        original.add(sec(i), static_cast<double>((i * 37) % 23));
    (void)original.median(); // ranked before the save

    sim::StateWriter writer;
    original.saveState(writer);
    const std::vector<std::byte> bytes = writer.release();
    SlidingWindow restored(sec(30), 64);
    sim::StateReader reader(bytes);
    restored.loadState(reader);
    expectSameStatistics(original, restored);

    for (int i = 300; i < 400; ++i) {
        original.add(sec(i), static_cast<double>((i * 11) % 17));
        restored.add(sec(i), static_cast<double>((i * 11) % 17));
    }
    expectSameStatistics(original, restored);
}

} // namespace
} // namespace cidre::stats

/**
 * @file
 * Property tests of the statistics substrate against naive reference
 * implementations, under randomized inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "sim/rng.h"
#include "sim/serialize.h"
#include "stats/cdf.h"
#include "stats/latency_histogram.h"
#include "stats/sliding_window.h"
#include "stats/summary.h"

namespace cidre::stats {
namespace {

class SeededPropertyTest : public ::testing::TestWithParam<int>
{
  protected:
    sim::Rng rng() const
    {
        return sim::Rng(static_cast<std::uint64_t>(GetParam()));
    }
};

TEST_P(SeededPropertyTest, HistogramTracksExactCdf)
{
    sim::Rng gen = rng();
    LatencyHistogram histogram;
    std::vector<std::uint64_t> exact;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        // Mixture: heavy tail plus mass at zero, like latency data.
        std::uint64_t v = 0;
        if (!gen.chance(0.1))
            v = static_cast<std::uint64_t>(std::exp(gen.uniform(0.0, 12.0)));
        histogram.record(v);
        exact.push_back(v);
    }
    std::sort(exact.begin(), exact.end());
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        // Within [x, x * (1 + 1/128)] of the rank-ceil(qN) statistic.
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(exact.size())));
        const auto truth = static_cast<double>(exact[rank - 1]);
        const auto approx = static_cast<double>(histogram.percentile(q));
        EXPECT_GE(approx, truth) << "quantile " << q;
        EXPECT_LE(approx, truth * (1.0 + 1.0 / 128.0)) << "quantile " << q;
    }
    double sum = 0.0;
    for (const std::uint64_t v : exact)
        sum += static_cast<double>(v);
    EXPECT_NEAR(histogram.mean(), sum / n, sum / n * 1e-9);
    EXPECT_EQ(histogram.count(), exact.size());
}

TEST_P(SeededPropertyTest, SlidingWindowMatchesReference)
{
    sim::Rng gen = rng();
    const sim::SimTime horizon = sim::sec(30);
    const std::size_t cap = 64;
    SlidingWindow window(horizon, cap);
    std::deque<std::pair<sim::SimTime, double>> reference;

    sim::SimTime now = 0;
    for (int i = 0; i < 2000; ++i) {
        now += static_cast<sim::SimTime>(gen.below(sim::sec(2)));
        const double value = gen.uniform(0.0, 1000.0);
        window.add(now, value);
        reference.emplace_back(now, value);
        if (reference.size() > cap)
            reference.pop_front();
        while (!reference.empty() &&
               reference.front().first < now - horizon) {
            reference.pop_front();
        }

        ASSERT_EQ(window.count(), reference.size());
        if (reference.empty())
            continue;
        if (i % 37 == 0) {
            std::vector<double> values;
            for (const auto &[when, v] : reference)
                values.push_back(v);
            const double q = gen.uniform();
            const auto rank = static_cast<std::size_t>(
                q * static_cast<double>(values.size() - 1) + 0.5);
            std::nth_element(values.begin(),
                             values.begin() +
                                 static_cast<std::ptrdiff_t>(rank),
                             values.end());
            EXPECT_DOUBLE_EQ(window.percentile(q), values[rank]);
        }
    }
}

TEST_P(SeededPropertyTest, SlidingWindowExpireHeavyMatchesReference)
{
    // The add-driven property above rarely empties the window; this one
    // interleaves explicit expire() sweeps (the engine's read path) with
    // long idle gaps, and also checks mean().
    sim::Rng gen = rng();
    const sim::SimTime horizon = sim::sec(10);
    const std::size_t cap = 32;
    SlidingWindow window(horizon, cap);
    std::deque<std::pair<sim::SimTime, double>> reference;

    const auto drop_expired = [&](sim::SimTime now) {
        while (!reference.empty() &&
               reference.front().first < now - horizon) {
            reference.pop_front();
        }
    };

    sim::SimTime now = 0;
    for (int i = 0; i < 3000; ++i) {
        // 1-in-8 steps jump far ahead, usually past the whole horizon.
        now += static_cast<sim::SimTime>(
            gen.chance(0.125) ? gen.below(sim::sec(25))
                              : gen.below(sim::sec(1)));
        if (gen.chance(0.4)) {
            window.expire(now);
            drop_expired(now);
            ASSERT_EQ(window.count(), reference.size());
        } else {
            const double value = gen.uniform(0.0, 100.0);
            window.add(now, value);
            reference.emplace_back(now, value);
            if (reference.size() > cap)
                reference.pop_front();
            drop_expired(now);
            ASSERT_EQ(window.count(), reference.size());
        }
        if (reference.empty())
            continue;

        double sum = 0.0;
        for (const auto &[when, v] : reference)
            sum += v;
        const double mean = sum / static_cast<double>(reference.size());
        EXPECT_NEAR(window.mean(), mean, 1e-9);
        EXPECT_EQ(window.earliestTime(), reference.front().first);
        EXPECT_EQ(window.latestTime(), reference.back().first);
        if (i % 23 == 0) {
            std::vector<double> values;
            for (const auto &[when, v] : reference)
                values.push_back(v);
            std::sort(values.begin(), values.end());
            const double q = gen.uniform();
            const auto rank = static_cast<std::size_t>(
                q * static_cast<double>(values.size() - 1) + 0.5);
            EXPECT_DOUBLE_EQ(window.percentile(q), values[rank]);
            EXPECT_DOUBLE_EQ(window.median(), values[values.size() / 2]);
        }
    }
}

/** When a window's sorted companion is first built. */
enum class RankStart
{
    BeforeFill, //!< on the first add
    MidStream,  //!< once the cap has forced drops for a while
    AfterLoad,  //!< right after a saveState/loadState round trip
};

/**
 * A window against a reference deque under heavy ties: values come
 * from eight tenths, so the companion's ranks land among equal values,
 * and the retention cap, horizon expiry and explicit expire() all drop
 * samples.  The reference sum takes the same floating-point steps the
 * window promises (drop, reset to zero when emptied, then add), so
 * mean() is checked bit for bit.
 */
void
checkWindowAgainstReference(sim::Rng &gen, std::size_t cap, RankStart start)
{
    const sim::SimTime horizon = sim::sec(20);
    auto window = std::make_unique<SlidingWindow>(horizon, cap);
    std::deque<std::pair<sim::SimTime, double>> reference;
    double sum = 0.0;
    const auto dropOldest = [&] {
        sum -= reference.front().second;
        reference.pop_front();
        if (reference.empty())
            sum = 0.0;
    };
    const auto dropExpired = [&](sim::SimTime now) {
        while (!reference.empty() &&
               reference.front().first < now - horizon)
            dropOldest();
    };

    const int steps = static_cast<int>(std::max<std::size_t>(600, 3 * cap));
    const int rank_at = start == RankStart::BeforeFill ? 0
        : start == RankStart::MidStream
        ? static_cast<int>(cap + cap / 2)
        : steps / 2;
    bool ranked = false;
    sim::SimTime now = 0;
    for (int i = 0; i < steps; ++i) {
        // Mostly dense adds, so the cap binds; now and then a gap that
        // expires part or all of the window.
        now += static_cast<sim::SimTime>(
            gen.chance(0.02) ? gen.below(sim::sec(30))
                             : gen.below(sim::msec(20)));
        if (gen.chance(0.05)) {
            window->expire(now);
            dropExpired(now);
        } else {
            const double value = static_cast<double>(gen.below(8)) * 0.1;
            window->add(now, value);
            if (reference.size() == cap)
                dropOldest();
            reference.emplace_back(now, value);
            sum += value;
            dropExpired(now);
        }
        if (i == rank_at && start == RankStart::AfterLoad) {
            sim::StateWriter writer;
            window->saveState(writer);
            const std::vector<std::byte> bytes = writer.release();
            window = std::make_unique<SlidingWindow>(horizon, cap);
            sim::StateReader reader(bytes);
            window->loadState(reader);
        }
        ranked = ranked || (i >= rank_at && !reference.empty());
        ASSERT_EQ(window->count(), reference.size()) << "step " << i;
        if (reference.empty() || !ranked)
            continue;

        std::vector<double> sorted;
        for (const auto &[when, v] : reference)
            sorted.push_back(v);
        std::sort(sorted.begin(), sorted.end());
        const auto at = [&](double q) {
            return sorted[static_cast<std::size_t>(
                q * static_cast<double>(sorted.size() - 1) + 0.5)];
        };
        for (const double q : {0.0, 0.25, 0.5, 0.9, 1.0, gen.uniform()}) {
            ASSERT_EQ(window->percentile(q), at(q))
                << "step " << i << " q " << q;
        }
        const double mean = sum / static_cast<double>(reference.size());
        const double got = window->mean();
        ASSERT_EQ(std::memcmp(&got, &mean, sizeof got), 0)
            << "step " << i << ": " << got << " vs " << mean;
        if (cap == 1) {
            ASSERT_EQ(got, reference.back().second) << "step " << i;
        }
        ASSERT_EQ(window->earliestTime(), reference.front().first);
        ASSERT_EQ(window->latestTime(), reference.back().first);
    }
}

TEST_P(SeededPropertyTest, RankedWindowMatchesReferenceUnderTies)
{
    sim::Rng gen = rng();
    for (const std::size_t cap : {1, 2, 3, 64, 512}) {
        for (const RankStart start : {RankStart::BeforeFill,
                                      RankStart::MidStream,
                                      RankStart::AfterLoad}) {
            SCOPED_TRACE(::testing::Message()
                         << "cap " << cap << " start "
                         << static_cast<int>(start));
            checkWindowAgainstReference(gen, cap, start);
        }
    }
}

TEST_P(SeededPropertyTest, SummaryMatchesTwoPass)
{
    sim::Rng gen = rng();
    OnlineSummary summary;
    std::vector<double> values;
    for (int i = 0; i < 5000; ++i) {
        const double v = gen.uniform(-50.0, 150.0);
        summary.add(v);
        values.push_back(v);
    }
    double mean = 0.0;
    for (const double v : values)
        mean += v;
    mean /= static_cast<double>(values.size());
    double var = 0.0;
    for (const double v : values)
        var += (v - mean) * (v - mean);
    var /= static_cast<double>(values.size());

    EXPECT_NEAR(summary.mean(), mean, 1e-9);
    EXPECT_NEAR(summary.variance(), var, 1e-6);
    EXPECT_DOUBLE_EQ(summary.min(),
                     *std::min_element(values.begin(), values.end()));
    EXPECT_DOUBLE_EQ(summary.max(),
                     *std::max_element(values.begin(), values.end()));
}

TEST_P(SeededPropertyTest, SummaryMergeAssociative)
{
    sim::Rng gen = rng();
    OnlineSummary whole;
    OnlineSummary parts[3];
    for (int i = 0; i < 3000; ++i) {
        const double v = std::exp(gen.uniform(0.0, 10.0));
        whole.add(v);
        parts[gen.below(3)].add(v);
    }
    OnlineSummary merged;
    for (auto &part : parts)
        merged.merge(part);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(),
                std::abs(whole.mean()) * 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(),
                whole.variance() * 1e-6);
}

TEST_P(SeededPropertyTest, CdfPercentileFractionRoundTrip)
{
    sim::Rng gen = rng();
    Cdf cdf;
    for (int i = 0; i < 3000; ++i)
        cdf.add(gen.uniform(0.0, 100.0));
    for (const double q : {0.05, 0.3, 0.5, 0.7, 0.95}) {
        const double value = cdf.percentile(q);
        // fractionBelow(percentile(q)) ≈ q for continuous data.
        EXPECT_NEAR(cdf.fractionBelow(value), q, 0.01) << "q=" << q;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Range(1, 6));

} // namespace
} // namespace cidre::stats

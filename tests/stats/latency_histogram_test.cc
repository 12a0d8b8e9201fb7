/**
 * @file
 * The log-bucketed histogram behind RunMetrics' overhead/E2E
 * distributions and the live orchestrator's decision-latency report:
 * bucket-boundary exactness, merge associativity, percentile agreement
 * (within one bucket) against a sorted-vector reference on random
 * samples, and the checkpoint round trip with its bounds checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/rng.h"
#include "sim/serialize.h"
#include "stats/latency_histogram.h"

namespace cidre::stats {
namespace {

TEST(LatencyHistogram, EmptyHistogramIsInert)
{
    LatencyHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.maxValue(), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact)
{
    // Values below the sub-bucket count get a bucket each: recording
    // them is lossless, so every percentile is exact.
    constexpr std::uint64_t n = LatencyHistogram::kSubBuckets;
    LatencyHistogram h;
    for (std::uint64_t v = 0; v < n; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), n);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), n - 1);
    EXPECT_EQ(h.mean(), static_cast<double>(n - 1) / 2.0);
    EXPECT_EQ(h.percentile(0.5), n / 2 - 1);
    EXPECT_EQ(h.percentile(1.0), n - 1);
    for (std::uint64_t v = 0; v < n; ++v) {
        EXPECT_EQ(LatencyHistogram::bucketLowerBound(
                      LatencyHistogram::bucketIndex(v)),
                  v);
        EXPECT_EQ(LatencyHistogram::bucketUpperBound(
                      LatencyHistogram::bucketIndex(v)),
                  v);
    }
}

TEST(LatencyHistogram, BucketBoundsBracketEveryValue)
{
    // Walk boundary-heavy values: powers of two, their neighbours, and
    // the sub-bucket edges around them.  Every value must land in a
    // bucket whose bounds bracket it with <= 1/kSubBuckets relative
    // width.
    std::vector<std::uint64_t> values;
    for (unsigned exp = 0; exp < 63; ++exp) {
        const std::uint64_t base = std::uint64_t{1} << exp;
        for (std::int64_t delta : {-1, 0, 1})
            if (delta >= 0 || base > 0)
                values.push_back(base + static_cast<std::uint64_t>(delta));
    }
    values.push_back(UINT64_MAX);
    for (const std::uint64_t v : values) {
        const std::size_t index = LatencyHistogram::bucketIndex(v);
        ASSERT_LT(index, LatencyHistogram::kBucketCount);
        const std::uint64_t lo = LatencyHistogram::bucketLowerBound(index);
        const std::uint64_t hi = LatencyHistogram::bucketUpperBound(index);
        ASSERT_LE(lo, v) << v;
        ASSERT_GE(hi, v) << v;
        // Buckets partition the domain: the bounds map back to the
        // same bucket, and the width obeys the resolution contract.
        EXPECT_EQ(LatencyHistogram::bucketIndex(lo), index) << v;
        EXPECT_EQ(LatencyHistogram::bucketIndex(hi), index) << v;
        if (v >= LatencyHistogram::kSubBuckets) {
            EXPECT_LE(hi - lo + 1, lo / LatencyHistogram::kSubBuckets)
                << v;
        }
    }
}

TEST(LatencyHistogram, BucketsAreContiguous)
{
    for (std::size_t i = 0; i + 1 < LatencyHistogram::kBucketCount; ++i) {
        EXPECT_EQ(LatencyHistogram::bucketUpperBound(i) + 1,
                  LatencyHistogram::bucketLowerBound(i + 1))
            << i;
    }
}

LatencyHistogram
randomHistogram(std::uint64_t seed, std::size_t n)
{
    sim::Rng rng(seed);
    LatencyHistogram h;
    for (std::size_t i = 0; i < n; ++i) {
        // Log-uniform: exercise every magnitude, not just the mean.
        const unsigned exp = static_cast<unsigned>(rng.below(40));
        h.record(rng.below((std::uint64_t{1} << exp) + 1));
    }
    return h;
}

TEST(LatencyHistogram, MergeIsAssociativeAndOrderFree)
{
    const LatencyHistogram a = randomHistogram(1, 5'000);
    const LatencyHistogram b = randomHistogram(2, 3'000);
    const LatencyHistogram c = randomHistogram(3, 7'000);

    LatencyHistogram left = a;
    left.merge(b);
    left.merge(c);
    LatencyHistogram right = b;
    right.merge(c);
    LatencyHistogram right_into_a = a;
    right_into_a.merge(right);

    EXPECT_EQ(left.count(), right_into_a.count());
    EXPECT_EQ(left.minValue(), right_into_a.minValue());
    EXPECT_EQ(left.maxValue(), right_into_a.maxValue());
    EXPECT_EQ(left.mean(), right_into_a.mean());
    for (const double q :
         {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(left.percentile(q), right_into_a.percentile(q)) << q;
}

TEST(LatencyHistogram, PercentileAgreesWithSortedVectorWithinOneBucket)
{
    sim::Rng rng(2026);
    std::vector<std::uint64_t> samples;
    LatencyHistogram h;
    for (std::size_t i = 0; i < 50'000; ++i) {
        const unsigned exp = static_cast<unsigned>(rng.below(34));
        const std::uint64_t v = rng.below((std::uint64_t{1} << exp) + 1);
        samples.push_back(v);
        h.record(v);
    }
    std::sort(samples.begin(), samples.end());

    for (const double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const auto rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(q * static_cast<double>(samples.size()))));
        const std::uint64_t reference = samples[rank - 1];
        const std::uint64_t reported = h.percentile(q);
        // The histogram answers with the upper bound of the bucket the
        // true rank-statistic falls in (clamped to the observed max):
        // never below the truth, never more than one bucket above.
        const std::size_t bucket =
            LatencyHistogram::bucketIndex(reference);
        EXPECT_GE(reported, reference) << q;
        EXPECT_LE(reported, LatencyHistogram::bucketUpperBound(bucket))
            << q;
    }
    EXPECT_EQ(h.percentile(1.0), samples.back());
}

TEST(LatencyHistogram, WeightedRecordMatchesRepeatedRecord)
{
    LatencyHistogram repeated;
    for (int i = 0; i < 100; ++i)
        repeated.record(4096);
    repeated.record(7);
    LatencyHistogram weighted;
    weighted.record(4096, 100);
    weighted.record(7, 1);
    EXPECT_EQ(repeated.count(), weighted.count());
    EXPECT_EQ(repeated.mean(), weighted.mean());
    for (const double q : {0.0, 0.005, 0.01, 0.5, 1.0})
        EXPECT_EQ(repeated.percentile(q), weighted.percentile(q)) << q;
}

std::vector<std::byte>
savedBytes(const LatencyHistogram &h)
{
    sim::StateWriter writer;
    h.saveState(writer);
    return writer.release();
}

TEST(LatencyHistogram, SaveLoadRoundTripIsExact)
{
    const LatencyHistogram original = randomHistogram(7, 20'000);
    const std::vector<std::byte> bytes = savedBytes(original);

    LatencyHistogram restored;
    sim::StateReader reader(bytes);
    restored.loadState(reader);
    EXPECT_TRUE(reader.atEnd());

    EXPECT_EQ(savedBytes(restored), bytes);
    EXPECT_EQ(restored.count(), original.count());
    EXPECT_EQ(restored.mean(), original.mean());
    EXPECT_EQ(restored.minValue(), original.minValue());
    EXPECT_EQ(restored.maxValue(), original.maxValue());
    for (const double q :
         {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(restored.percentile(q), original.percentile(q)) << q;

    // An empty histogram round-trips too (no stored buckets).
    const LatencyHistogram empty;
    LatencyHistogram empty_restored;
    const std::vector<std::byte> empty_bytes = savedBytes(empty);
    sim::StateReader empty_reader(empty_bytes);
    empty_restored.loadState(empty_reader);
    EXPECT_TRUE(empty_restored.empty());
    EXPECT_EQ(savedBytes(empty_restored), empty_bytes);
}

/** Saved-state layout: total, sum, min, max, then the counts vector. */
std::vector<std::byte>
handMadeState(std::uint64_t total, const std::vector<std::uint64_t> &counts)
{
    sim::StateWriter writer;
    writer.put(total);
    writer.put(std::uint64_t{0}); // sum
    writer.put(std::uint64_t{0}); // min
    writer.put(std::uint64_t{0}); // max
    writer.putVector(counts);
    return writer.release();
}

void
expectLoadThrows(const std::vector<std::byte> &bytes)
{
    LatencyHistogram h;
    sim::StateReader reader(bytes);
    EXPECT_THROW(h.loadState(reader), std::runtime_error);
}

TEST(LatencyHistogram, LoadRejectsMoreBucketsThanTheRange)
{
    std::vector<std::uint64_t> counts(LatencyHistogram::kBucketCount + 1,
                                      0);
    counts.back() = 1;
    expectLoadThrows(handMadeState(1, counts));
    // The largest legal layout still loads.
    counts.pop_back();
    counts.back() = 1;
    LatencyHistogram h;
    const std::vector<std::byte> bytes = handMadeState(1, counts);
    sim::StateReader reader(bytes);
    h.loadState(reader);
    EXPECT_EQ(h.count(), 1u);
}

TEST(LatencyHistogram, LoadRejectsCountsThatMissTheTotal)
{
    expectLoadThrows(handMadeState(5, {1, 2, 1}));
    expectLoadThrows(handMadeState(3, {1, 2, 1}));
    expectLoadThrows(handMadeState(1, {}));
}

TEST(LatencyHistogram, LoadRejectsTruncatedPayload)
{
    const std::vector<std::byte> bytes =
        savedBytes(randomHistogram(9, 1'000));
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{32}, std::size_t{40},
          bytes.size() / 2, bytes.size() - 1}) {
        const std::vector<std::byte> cut(bytes.begin(),
                                         bytes.begin() +
                                             static_cast<std::ptrdiff_t>(
                                                 keep));
        expectLoadThrows(cut);
    }
}

} // namespace
} // namespace cidre::stats

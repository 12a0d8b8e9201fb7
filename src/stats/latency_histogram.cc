#include "stats/latency_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "sim/serialize.h"

namespace cidre::stats {

std::size_t
LatencyHistogram::bucketIndex(std::uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<std::size_t>(value);
    // Exponent of the value's power-of-two range, then the top
    // kSubBucketBits bits below the leading one pick the sub-bucket.
    const unsigned exp = std::bit_width(value) - 1; // >= kSubBucketBits
    const auto sub = static_cast<std::size_t>(
        (value >> (exp - kSubBucketBits)) & (kSubBuckets - 1));
    return (exp - kSubBucketBits + 1) * kSubBuckets + sub;
}

std::uint64_t
LatencyHistogram::bucketLowerBound(std::size_t index)
{
    if (index < kSubBuckets)
        return index;
    const unsigned exp = kSubBucketBits +
        static_cast<unsigned>(index / kSubBuckets) - 1;
    const std::uint64_t sub = index % kSubBuckets;
    return (kSubBuckets + sub) << (exp - kSubBucketBits);
}

std::uint64_t
LatencyHistogram::bucketUpperBound(std::size_t index)
{
    if (index < kSubBuckets)
        return index;
    const unsigned exp = kSubBucketBits +
        static_cast<unsigned>(index / kSubBuckets) - 1;
    const std::uint64_t width = std::uint64_t{1} << (exp - kSubBucketBits);
    return bucketLowerBound(index) + width - 1;
}

void
LatencyHistogram::record(std::uint64_t value, std::uint64_t count)
{
    if (count == 0)
        return;
    const std::size_t index = bucketIndex(value);
    if (index >= counts_.size())
        counts_.resize(index + 1, 0);
    counts_[index] += count;
    total_ += count;
    sum_ += value * count;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.counts_.size() > counts_.size())
        counts_.resize(other.counts_.size(), 0);
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
LatencyHistogram::mean() const
{
    return total_ == 0
        ? 0.0
        : static_cast<double>(sum_) / static_cast<double>(total_);
}

std::uint64_t
LatencyHistogram::percentile(double q) const
{
    if (total_ == 0)
        return 0;
    const double clamped = std::clamp(q, 0.0, 1.0);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(clamped * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= rank)
            return std::min(bucketUpperBound(i), max_);
    }
    return max_;
}

void
LatencyHistogram::saveState(sim::StateWriter &writer) const
{
    writer.put(total_);
    writer.put(sum_);
    writer.put(min_);
    writer.put(max_);
    writer.putVector(counts_);
}

void
LatencyHistogram::loadState(sim::StateReader &reader)
{
    const auto total = reader.get<std::uint64_t>();
    const auto sum = reader.get<std::uint64_t>();
    const auto min = reader.get<std::uint64_t>();
    const auto max = reader.get<std::uint64_t>();
    std::vector<std::uint64_t> counts =
        reader.getVector<std::uint64_t>();
    if (counts.size() > kBucketCount)
        throw std::runtime_error(
            "LatencyHistogram: checkpoint has too many buckets");
    std::uint64_t counted = 0;
    for (const std::uint64_t c : counts)
        counted += c;
    if (counted != total)
        throw std::runtime_error(
            "LatencyHistogram: checkpoint bucket counts do not sum to"
            " the total");
    counts_ = std::move(counts);
    total_ = total;
    sum_ = sum;
    min_ = min;
    max_ = max;
}

} // namespace cidre::stats

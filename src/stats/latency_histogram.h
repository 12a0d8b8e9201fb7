/**
 * @file
 * Log-bucketed integer histogram (HDR-style): the repo's only histogram.
 *
 * It holds RunMetrics' invocation overhead and E2E time in integer
 * microseconds and the live orchestrator's per-decision latency in
 * nanoseconds.  Recording a sample is a handful of bit operations (no
 * stored samples), histograms from different threads, cells or runs
 * merge exactly by bucket-wise addition, and any percentile is read
 * back exact-to-bucket — the reported value is the *upper bound* of the
 * bucket holding the rank, so it never under-reports and is at most
 * 1/128 (0.78%) above the true order statistic.
 *
 * Bucket scheme: values below 128 get one bucket each (exact); above,
 * each power-of-two range splits into 128 equal sub-buckets, so the
 * relative bucket width is bounded by 1/128 everywhere.  The full
 * 64-bit value range fits in 7424 buckets, but counts are stored only
 * up to the highest bucket used so far: µs latencies up to ~20 minutes
 * need about 3,100 counters (~25 KB).
 */

#ifndef CIDRE_STATS_LATENCY_HISTOGRAM_H
#define CIDRE_STATS_LATENCY_HISTOGRAM_H

#include <cstdint>
#include <vector>

namespace cidre::sim {
class StateReader;
class StateWriter;
} // namespace cidre::sim

namespace cidre::stats {

/** Mergeable log-bucketed histogram of non-negative 64-bit samples. */
class LatencyHistogram
{
  public:
    /** Sub-buckets per power-of-two range (the precision knob). */
    static constexpr unsigned kSubBucketBits = 7;
    static constexpr std::uint64_t kSubBuckets = 1ULL << kSubBucketBits;
    /** Total buckets covering the full 64-bit range. */
    static constexpr std::size_t kBucketCount =
        kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

    /** Record @p count occurrences of @p value (µs or ns). */
    void record(std::uint64_t value, std::uint64_t count = 1);

    /** Bucket-wise accumulate @p other into *this (associative). */
    void merge(const LatencyHistogram &other);

    /** Total samples recorded. */
    std::uint64_t count() const { return total_; }

    bool empty() const { return total_ == 0; }

    /** Smallest / largest recorded value (exact, not bucketed). */
    std::uint64_t minValue() const { return total_ == 0 ? 0 : min_; }
    std::uint64_t maxValue() const { return max_; }

    /** Mean of the recorded values (exact: a running sum is kept). */
    double mean() const;

    /**
     * The value at quantile @p q in [0, 1]: the upper bound of the
     * bucket containing the rank-ceil(q*count) sample (clamped to the
     * exact maximum), i.e. within one bucket above the true order
     * statistic and never below it.  Returns 0 on an empty histogram.
     */
    std::uint64_t percentile(double q) const;

    /**
     * Checkpoint/restore of the exact state.  loadState throws
     * std::runtime_error on more than kBucketCount buckets, on counts
     * that do not sum to the stored total, or on a truncated payload.
     */
    void saveState(sim::StateWriter &writer) const;
    void loadState(sim::StateReader &reader);

    // ---- bucket introspection (tests) -----------------------------------

    /** Bucket index a value lands in. */
    static std::size_t bucketIndex(std::uint64_t value);

    /** Smallest / largest value mapping to bucket @p index. */
    static std::uint64_t bucketLowerBound(std::size_t index);
    static std::uint64_t bucketUpperBound(std::size_t index);

  private:
    /** Counts of buckets [0, highest used]; grows on demand. */
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = UINT64_MAX;
    std::uint64_t max_ = 0;
};

} // namespace cidre::stats

#endif // CIDRE_STATS_LATENCY_HISTOGRAM_H

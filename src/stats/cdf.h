/**
 * @file
 * Exact empirical CDF over a retained sample set.
 *
 * Most paper figures are CDFs (Figs. 2, 3, 5, 6, 9, 10, 13, 14, 19); this
 * class retains every sample, sorts lazily, and answers percentile /
 * fraction-below queries exactly.  For multi-million-sample streams where
 * retention is too costly, use stats::LatencyHistogram instead.
 */

#ifndef CIDRE_STATS_CDF_H
#define CIDRE_STATS_CDF_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cidre::stats {

/** One (value, cumulative-fraction) point of an empirical CDF. */
struct CdfPoint
{
    double value;
    double fraction;
};

/** Exact empirical CDF built from retained samples. */
class Cdf
{
  public:
    Cdf() = default;

    /** Build from an existing sample vector. */
    explicit Cdf(std::vector<double> samples);

    /** Absorb one sample. */
    void add(double value);

    /**
     * Absorb every sample of @p other.
     *
     * Queries depend only on the merged multiset of samples, so merging
     * the same operands in the same order always reproduces the same
     * CDF — the order-stable reduction the parallel experiment runner
     * relies on.
     */
    void merge(const Cdf &other);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /**
     * Value at quantile @p q in [0, 1] (linear interpolation between
     * order statistics).  Requires at least one sample.
     */
    double percentile(double q) const;

    /** Median shorthand. */
    double median() const { return percentile(0.5); }

    /** Fraction of samples <= @p value (the CDF evaluated at value). */
    double fractionBelow(double value) const;

    double min() const { return percentile(0.0); }
    double max() const { return percentile(1.0); }
    double mean() const;

    /**
     * Evenly spaced CDF points suitable for plotting / printing,
     * at most @p max_points of them.
     */
    std::vector<CdfPoint> points(std::size_t max_points = 100) const;

    /**
     * First value where this CDF's fraction-below overtakes @p other's,
     * i.e. the crossover the paper reports for Fig. 5 (464 ms).
     * Scans @p steps evenly spaced values across the merged range.
     * Returns nullopt if the curves never cross.
     */
    std::optional<double> crossover(const Cdf &other,
                                    std::size_t steps = 2048) const;

    /** Access to the (sorted) raw samples. */
    const std::vector<double> &sorted() const;

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * Render a compact textual CDF (value @ p10/p25/p50/p75/p90/p99) used by
 * the bench binaries when reporting distribution-shaped results.
 */
std::string describeCdf(const Cdf &cdf, const std::string &unit = "");

} // namespace cidre::stats

#endif // CIDRE_STATS_CDF_H

/**
 * @file
 * Time-bounded sample window used by CIDRE's CSS policy.
 *
 * CSS (paper §3.2) estimates T_e (execution time) and T_p (cold-start
 * latency) from "a 15-minute sliding window, whose size is configurable".
 * This class keeps (timestamp, value) pairs, expires entries older than
 * the horizon, and answers percentile queries.
 *
 * To bound per-decision cost for very hot functions, the window also caps
 * the number of retained samples (newest win); the cap is configurable
 * and the sensitivity bench (Fig. 18) raises it when comparing horizons.
 *
 * Entries live in a ring buffer (time order); mean() reads a running
 * sum.  percentile() indexes a sorted companion array (value order).
 * The companion is built on the first percentile() call, by sorting the
 * retained values, and maintained on every add/expire from then on, so
 * a window that is never ranked (the engine's arrival window) never
 * pays for one.  Both statistics are *exact*: the companion holds the
 * same multiset a fresh sort would.
 *
 * Keeping the companion costs a rank search and one shift per change.
 * A rank is a branch-free halving search (a conditional move per step,
 * no mispredictions).  An expiry erases the oldest value and an add
 * below the cap inserts the new one; an add at the cap, the common
 * case of a hot function, puts the new sample in the oldest one's ring
 * slot and moves its value into place with a single shift of the values
 * between the two ranks.
 */

#ifndef CIDRE_STATS_SLIDING_WINDOW_H
#define CIDRE_STATS_SLIDING_WINDOW_H

#include <cstddef>
#include <vector>

#include "sim/time.h"

namespace cidre::sim {
class StateReader;
class StateWriter;
} // namespace cidre::sim

namespace cidre::stats {

/** Sliding time window of scalar samples with percentile queries. */
class SlidingWindow
{
  public:
    /**
     * @param horizon     max sample age; sim::kTimeInfinity keeps all.
     * @param max_samples retention cap (newest samples win); must be > 0.
     */
    explicit SlidingWindow(sim::SimTime horizon = sim::minutes(15),
                           std::size_t max_samples = 512);

    /** Record a sample observed at @p now. */
    void add(sim::SimTime now, double value);

    /** Drop samples older than now - horizon. */
    void expire(sim::SimTime now);

    /** Number of retained samples (after the last expire/add). */
    std::size_t count() const { return size_; }
    bool empty() const { return size_ == 0; }

    /**
     * Value at quantile @p q over the retained samples.
     * Requires a non-empty window.  The first call builds the sorted
     * companion (O(n log n)); later calls index it.
     */
    double percentile(double q) const;

    double median() const { return percentile(0.5); }
    double mean() const;

    /** Most recently added value; requires a non-empty window. */
    double latest() const;

    /** Timestamp of the oldest retained sample (non-empty windows). */
    sim::SimTime earliestTime() const;

    /** Timestamp of the newest retained sample (non-empty windows). */
    sim::SimTime latestTime() const;

    sim::SimTime horizon() const { return horizon_; }

    /**
     * Checkpoint the live samples (time order) and running sum.  The
     * restored window is observationally identical — same samples,
     * percentiles and sum drift — though its ring
     * capacity trajectory may differ (not observable), and its
     * companion is left unbuilt until the next percentile().
     * loadState() throws std::runtime_error unless the saved horizon
     * and sample cap equal this window's.
     */
    void saveState(sim::StateWriter &writer) const;
    void loadState(sim::StateReader &reader);

  private:
    struct Entry
    {
        sim::SimTime when;
        double value;
    };

    const Entry &at(std::size_t i) const
    {
        const std::size_t slot = head_ + i;
        return ring_[slot < ring_.size() ? slot : slot - ring_.size()];
    }

    /** Drop the oldest entry (ring + sum, and the companion if built). */
    void dropFront();

    /**
     * Add at the retention cap: the new entry takes the oldest one's
     * ring slot (ring + sum, and the companion if built), leaving what
     * dropFront() followed by an append would.
     */
    void replaceFront(sim::SimTime now, double value);

    /** Grow the ring (and companion reserve) toward max_samples_. */
    void growRing();

    sim::SimTime horizon_;
    std::size_t max_samples_;
    std::vector<Entry> ring_; //!< time-ordered, ring_[head_] oldest
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    /**
     * Ascending companion of the ring, valid only while ranked_.  Built
     * by the first percentile(), a const call, hence mutable: a window
     * is read from one thread at a time, like the engine that owns it.
     */
    mutable std::vector<double> sorted_;
    mutable bool ranked_ = false;
    double sum_ = 0.0; //!< running sum (reset when emptied)
};

} // namespace cidre::stats

#endif // CIDRE_STATS_SLIDING_WINDOW_H

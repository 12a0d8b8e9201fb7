/**
 * @file
 * Hybrid-histogram keep-alive (Shahrad et al., USENIX ATC'20 —
 * "Serverless in the Wild"), the policy behind Azure Functions'
 * production keep-alive and a further baseline beyond the paper's list
 * (the paper builds on this work's trace analysis).
 *
 * Mechanism, per function, from its inter-arrival-time (IAT) histogram:
 *
 *  - keep-alive window = a high IAT percentile (default p99): idle
 *    containers are reaped once the next invocation is unlikely to be
 *    near;
 *  - pre-warm window = a low IAT percentile (default p5): after the
 *    function goes cold, a container is provisioned shortly before the
 *    next invocation is expected;
 *  - functions without enough history (or with out-of-range IATs) fall
 *    back to a fixed keep-alive TTL, like the original's standard
 *    keep-alive path.
 */

#ifndef CIDRE_POLICIES_BASELINES_HYBRID_H
#define CIDRE_POLICIES_BASELINES_HYBRID_H

#include <vector>

#include "core/policy.h"
#include "policies/keepalive/ranked.h"

namespace cidre::policies {

/** Hybrid-histogram tuning knobs. */
struct HybridConfig
{
    /** IAT percentile bounding the keep-alive window. */
    double keep_percentile = 0.99;

    /** IAT percentile setting the pre-warm lead. */
    double prewarm_percentile = 0.05;

    /** Minimum observed IATs before the histogram is trusted. */
    std::size_t min_history = 8;

    /** Fallback TTL for histogram-less functions. */
    sim::SimTime fallback_ttl = sim::minutes(10);

    /** Cap on the keep-alive window (the original caps at hours). */
    sim::SimTime max_keep = sim::minutes(60);

    /** At most this many pre-warms per tick. */
    std::size_t prewarm_per_tick = 16;
};

/** Shared per-function IAT history. */
class IatHistory
{
  public:
    void observe(trace::FunctionId function, sim::SimTime arrival);

    /** Number of IATs recorded for @p function. */
    std::size_t count(trace::FunctionId function) const;

    /**
     * IAT percentile for @p function, or -1 when fewer than
     * @p min_history samples exist.
     */
    sim::SimTime percentile(trace::FunctionId function, double q,
                            std::size_t min_history) const;

    /** Last observed arrival (or -1). */
    sim::SimTime lastArrival(trace::FunctionId function) const;

    /** Checkpoint/restore of every function's gap ring. */
    void saveState(sim::StateWriter &writer) const;
    void loadState(sim::StateReader &reader);

  private:
    struct Entry
    {
        sim::SimTime last_arrival = -1;
        std::vector<double> gaps; //!< ring buffer
        std::size_t next_slot = 0;
    };

    static constexpr std::size_t kCap = 64;
    mutable std::vector<Entry> entries_;

    Entry &entryFor(trace::FunctionId function) const;
};

/** Keep-alive half: per-function keep windows + LRU under pressure. */
class HybridKeepAlive : public RankedKeepAlive
{
  public:
    HybridKeepAlive(const HybridConfig &config, IatHistory &history);

    const char *name() const override { return "hybrid"; }

    void collectExpired(core::Engine &engine, sim::SimTime now,
                        std::vector<cluster::ContainerId> &out) override;

  protected:
    /** Recency: LRU among idle containers under pressure. */
    double key(core::Engine &engine,
               const cluster::Container &container) override;

  private:
    HybridConfig config_;
    IatHistory &history_;
};

/** Agent half: IAT observation + pre-warm scheduling. Owns the history. */
class HybridAgent : public core::ClusterAgent
{
  public:
    explicit HybridAgent(const HybridConfig &config);

    const char *name() const override { return "hybrid-agent"; }

    IatHistory &history() { return history_; }

    void onRequestObserved(core::Engine &engine,
                           const trace::Request &request) override;
    void onTick(core::Engine &engine, sim::SimTime now) override;

    /** Checkpoint/restore: the owned IAT history (the keep-alive half
     *  reads it by reference, so this covers the whole bundle). */
    void saveState(sim::StateWriter &writer) const override;
    void loadState(sim::StateReader &reader) override;

  private:
    HybridConfig config_;
    IatHistory history_;
};

/** Assemble the hybrid-histogram bundle (vanilla scaling). */
core::OrchestrationPolicy makeHybridHistogram(const HybridConfig &config);

} // namespace cidre::policies

#endif // CIDRE_POLICIES_BASELINES_HYBRID_H

/**
 * @file
 * Flame baseline (Yang et al., ASPLOS'23): a centralized cache
 * controller exploiting workload skewness.
 *
 * Flame's published insight is that FaaS load is highly skewed: a small
 * set of hot functions receives most invocations, while a long tail of
 * rarely invoked ("cold") functions wastes keep-alive memory.  Its
 * controller holds a global view and preferentially evicts containers of
 * cold functions, with tiered keep-alive durations.
 *
 * Re-implementation: functions are classified hot/cold by their recent
 * invocation rate; under pressure, cold-function containers are evicted
 * first (LRU within a class), and the periodic sweep expires idle
 * containers with a rate-dependent TTL (cold functions expire much
 * sooner).  The controller is global: the sweep sees all workers.
 *
 * Pressure order is (class, recency, seq): the key is recency and the
 * bonus a hot-class offset of 2^50.  Recency is an integer µs time, so
 * below 2^50 µs (about 35 years) class·2^50 + recency is exact and
 * classes never interleave.
 */

#ifndef CIDRE_POLICIES_BASELINES_FLAME_H
#define CIDRE_POLICIES_BASELINES_FLAME_H

#include "policies/keepalive/ranked.h"

namespace cidre::policies {

/** Flame tuning knobs. */
struct FlameConfig
{
    /** Functions at or above this rate (reqs/min) count as hot. */
    double hot_rate_per_min = 10.0;

    /** Idle TTL for hot-function containers. */
    sim::SimTime hot_ttl = sim::minutes(10);

    /** Idle TTL for cold-function containers. */
    sim::SimTime cold_ttl = sim::minutes(1);
};

/** Skew-aware centralized keep-alive. */
class FlameKeepAlive : public RankedKeepAlive
{
  public:
    explicit FlameKeepAlive(const FlameConfig &config);

    const char *name() const override { return "flame"; }

    void collectExpired(core::Engine &engine, sim::SimTime now,
                        std::vector<cluster::ContainerId> &out) override;

    /** Whether @p function currently classifies as hot (for tests). */
    bool isHot(core::Engine &engine, trace::FunctionId function) const;

  protected:
    double key(core::Engine &engine,
               const cluster::Container &container) override;
    double bonus(core::Engine &engine, trace::FunctionId function) override;

  private:
    FlameConfig config_;
};

/** Assemble the Flame bundle (vanilla scaling). */
core::OrchestrationPolicy makeFlame(const FlameConfig &config);

} // namespace cidre::policies

#endif // CIDRE_POLICIES_BASELINES_FLAME_H

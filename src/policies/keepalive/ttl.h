/**
 * @file
 * TTL keep-alive: OpenLambda's default policy.
 *
 * Containers idle for longer than a fixed lifespan (default 10 minutes,
 * the paper's baseline configuration) are reaped on the maintenance
 * tick.  Under memory pressure the oldest-idle containers are evicted
 * first — a necessary extension over the pure-TTL original, which would
 * simply refuse to start containers when memory is exhausted (see the
 * deviations list in DESIGN.md §7).
 */

#ifndef CIDRE_POLICIES_KEEPALIVE_TTL_H
#define CIDRE_POLICIES_KEEPALIVE_TTL_H

#include "policies/keepalive/ranked.h"

namespace cidre::policies {

/** Time-to-live keep-alive with oldest-idle pressure eviction. */
class TtlKeepAlive : public RankedKeepAlive
{
  public:
    explicit TtlKeepAlive(sim::SimTime ttl = sim::minutes(10));

    const char *name() const override { return "ttl"; }

    void collectExpired(core::Engine &engine, sim::SimTime now,
                        std::vector<cluster::ContainerId> &out) override;

  protected:
    /** idle_since: oldest idle evicts first. */
    double key(core::Engine &engine,
               const cluster::Container &container) override;

  private:
    sim::SimTime ttl_;
};

} // namespace cidre::policies

#endif // CIDRE_POLICIES_KEEPALIVE_TTL_H

/**
 * @file
 * Belady's MIN keep-alive (the Offline baseline's eviction half).
 *
 * Evicts the container whose function's next trace arrival is furthest
 * in the future (containers of never-again-invoked functions first).
 * Requires oracle access to the workload, which the engine provides to
 * every policy; only Offline uses it.  The score is a bonus alone (the
 * key is 0), so each scan looks up one next arrival per function with
 * idle containers, not one per container.
 */

#ifndef CIDRE_POLICIES_KEEPALIVE_BELADY_H
#define CIDRE_POLICIES_KEEPALIVE_BELADY_H

#include "policies/keepalive/ranked.h"

namespace cidre::policies {

/** Furthest-future-use eviction. */
class BeladyKeepAlive : public RankedKeepAlive
{
  public:
    BeladyKeepAlive() : RankedKeepAlive(Bonus::PerFunction) {}

    const char *name() const override { return "belady"; }

  protected:
    double key(core::Engine &engine,
               const cluster::Container &container) override;
    /** −(next arrival): furthest next use evicts first. */
    double bonus(core::Engine &engine, trace::FunctionId function) override;
};

} // namespace cidre::policies

#endif // CIDRE_POLICIES_KEEPALIVE_BELADY_H

/**
 * @file
 * LRU keep-alive: evict the least-recently-used idle container first
 * (the paper's second classic baseline).
 */

#ifndef CIDRE_POLICIES_KEEPALIVE_LRU_H
#define CIDRE_POLICIES_KEEPALIVE_LRU_H

#include "policies/keepalive/ranked.h"

namespace cidre::policies {

/** Least-recently-used keep-alive. */
class LruKeepAlive : public RankedKeepAlive
{
  public:
    LruKeepAlive() : RankedKeepAlive(Bonus::None) {}

    const char *name() const override { return "lru"; }

  protected:
    /** Recency; created_at/last_used_at are frozen while idle. */
    double key(core::Engine &engine,
               const cluster::Container &container) override;
};

} // namespace cidre::policies

#endif // CIDRE_POLICIES_KEEPALIVE_LRU_H

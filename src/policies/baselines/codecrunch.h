/**
 * @file
 * CodeCrunch baseline (Basu Roy et al., ASPLOS'24): keep-alive under
 * memory pressure via container *compression*.
 *
 * Instead of evicting an idle container outright, CodeCrunch compresses
 * its checkpoint in memory (footprint shrinks by the configured ratio);
 * a later invocation restores it for a fraction of the cold-start cost.
 * Under continued pressure, compressed containers are evicted for real.
 *
 * Plan construction: rank idle containers by a GDSF-style cost-aware
 * score; walk from the lowest score, compressing live containers and
 * evicting already-compressed ones until the demand is met.  If the walk
 * runs out first, evict from the lowest score of the same order.  The
 * engine models the restore path (StartType::Restored) and charges
 * EngineConfig::restore_cost_fraction of the cold start.
 */

#ifndef CIDRE_POLICIES_BASELINES_CODECRUNCH_H
#define CIDRE_POLICIES_BASELINES_CODECRUNCH_H

#include <vector>

#include "policies/keepalive/gdsf.h"

namespace cidre::policies {

/** Compression-first keep-alive. */
class CodeCrunchKeepAlive : public GdsfKeepAlive
{
  public:
    CodeCrunchKeepAlive();

    const char *name() const override { return "codecrunch"; }

    void planReclaim(core::Engine &engine,
                     const core::ReclaimRequest &request,
                     core::ReclaimPlan &plan) override;

  private:
    /** The merged order the compress pass popped (reused scratch). */
    std::vector<const cluster::Container *> popped_;
};

/** Assemble the CodeCrunch bundle (vanilla scaling). */
core::OrchestrationPolicy makeCodeCrunch();

} // namespace cidre::policies

#endif // CIDRE_POLICIES_BASELINES_CODECRUNCH_H

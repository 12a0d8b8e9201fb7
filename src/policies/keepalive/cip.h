/**
 * @file
 * CIDRE's concurrency-informed priority (CIP) eviction policy (§3.3).
 *
 * Eq. 3:  Priority(c) = Clock(c) + Freq(F(c)) · Cost(c) / (Size(c)·|F(c)|)
 *
 *  - Clock(c) is per-container: a new container inherits the maximum
 *    priority among the containers evicted to admit it (logical-clock
 *    watermark); each (delayed) warm start refreshes Clock(c) to the
 *    container's current priority.
 *  - Freq(F(c)) is the function's average invocations per *minute* since
 *    its first request (Eq. 4) — a rate, not a count, so stale popular
 *    functions decay naturally.
 *  - |F(c)| is the number of warm containers the function has cached:
 *    functions hogging many containers lose priority per container, which
 *    yields the balanced evictions of Observation 2.
 *
 * In RankedKeepAlive's terms the key is Clock(c), which only changes on
 * admit and use, never while a container sits idle, and the bonus is
 * the Freq·Cost/(Size·|F(c)|) term every container of one function
 * shares.  Selection is the base's bucket merge: one bonus per function
 * with idle containers per scan (memoized across the same-instant scans
 * of a placement sweep), victims in O(evicted · log F_w).  "Priority
 * before the update" in the clock refresh is the value the last scan
 * left, which the base rebuilds on removal.
 */

#ifndef CIDRE_POLICIES_KEEPALIVE_CIP_H
#define CIDRE_POLICIES_KEEPALIVE_CIP_H

#include <cstdint>
#include <vector>

#include "policies/keepalive/ranked.h"
#include "trace/function_profile.h"

namespace cidre::policies {

/** Concurrency-informed priority keep-alive (CIDRE §3.3). */
class CipKeepAlive : public RankedKeepAlive
{
  public:
    /**
     * @param bonus_weight multiplier on the Eq. 3 bonus term
     *        Freq·Cost/(Size·|F(c)|) — a tuning knob (cidre_sim tune
     *        "cip-weight"): 0 degenerates to pure clock ordering, large
     *        values approach frequency/cost-dominated eviction.  The
     *        default 1.0 is the paper's formula, bit-identical to the
     *        unweighted implementation.  Configuration, not state: it is
     *        not serialized by saveState (the checkpoint fingerprint
     *        already pins the policy construction).
     */
    explicit CipKeepAlive(double bonus_weight = 1.0)
        : RankedKeepAlive(Bonus::PerFunction), bonus_weight_(bonus_weight)
    {
    }

    const char *name() const override { return "cip"; }

    void onAdmit(core::Engine &engine, cluster::Container &container,
                 double eviction_watermark) override;
    void onUse(core::Engine &engine, cluster::Container &container,
               core::StartType type) override;

    /** Checkpoint/restore: the base ranking; the bonus memo is scratch. */
    void loadState(sim::StateReader &reader) override;

  protected:
    double key(core::Engine &engine,
               const cluster::Container &container) override;
    /** The weighted Freq·Cost/(Size·|F|) term, memoized per instant. */
    double bonus(core::Engine &engine, trace::FunctionId function) override;

  private:
    double bonus_weight_ = 1.0;

    /** bonus memo: same (now, priorityEpoch) ⇒ same bonus. */
    struct BonusCache
    {
        sim::SimTime when = -1;
        std::uint64_t epoch = 0;
        double bonus = 0.0;
    };
    std::vector<BonusCache> bonus_cache_;
};

} // namespace cidre::policies

#endif // CIDRE_POLICIES_KEEPALIVE_CIP_H

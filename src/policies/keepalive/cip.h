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
 * Selection is incremental, not a brute-force rescoring.  Eq. 3 has
 * structure the generic volatile-score path in RankedKeepAlive cannot
 * exploit: every container of one function shares the same bonus term
 * Freq·Cost/(Size·|F(c)|), and Clock only changes on use/admit — never
 * while a container sits idle.  So each worker keeps per-function
 * buckets of its idle containers ordered by (clock, seq); within a
 * bucket that order *is* the priority order at any instant.  A reclaim
 * computes one bonus per function with idle containers (O(F_w), cheap
 * and memoized across same-instant scans) and k-way-merges the bucket
 * heads through a min-heap keyed by (clock + bonus, seq) — popping
 * victims lowest-priority-first in exactly the (score, seq) order a full
 * rescore-and-sort would produce, but in O(evicted · log F_w).  (The
 * tie-break is Container::seq, not the recyclable slot id; seq is the
 * creation order ids used to encode when the slab was append-only.)
 *
 * Bit-identity with the brute-force path is preserved including its
 * side effects: the old scan wrote a fresh priority into *every* idle
 * container, and onUse reads that stale value (clock ← priority).  The
 * incremental path records, per (worker, function), the bonus of the
 * most recent scan; when a container leaves the idle list its
 * scan-time priority is reconstructed as clock + recorded bonus (entries
 * carry the scan sequence number current at insertion, so "was this
 * container scanned while idle?" is a single comparison).
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
        : bonus_weight_(bonus_weight)
    {
    }

    const char *name() const override { return "cip"; }

    void onAdmit(core::Engine &engine, cluster::Container &container,
                 double eviction_watermark) override;
    void onUse(core::Engine &engine, cluster::Container &container,
               core::StartType type) override;
    void onIdle(core::Engine &engine, cluster::Container &container) override;
    void onEvicted(core::Engine &engine,
                   const cluster::Container &container) override;
    void planReclaim(core::Engine &engine,
                     const core::ReclaimRequest &request,
                     core::ReclaimPlan &plan) override;

    /**
     * Checkpoint/restore.  The incremental buckets, recorded scan
     * bonuses/seqs and the scan counter are real state: onUse
     * reconstructs the stale scan-time priority of a container from
     * them, so dropping any of it would diverge from an uninterrupted
     * run.  The selection heap and the bonus memo are scratch.
     */
    void saveState(sim::StateWriter &writer) const override;
    void loadState(sim::StateReader &reader) override;

  protected:
    double score(core::Engine &engine,
                 cluster::Container &container) override;

  private:
    /** One idle container in its function's clock-ordered bucket.
     *  Checkpointed raw, so its padding is an explicit zeroed member. */
    struct IdleEntry
    {
        double clock;
        std::uint64_t seq; //!< Container::seq (stable across slot reuse)
        cluster::ContainerId id;
        std::uint32_t zero_pad = 0;
        /** Scan seq of the (worker, function) cell at insertion time. */
        std::uint64_t scan_mark;

        /** Bucket order (clock, seq): the within-function priority order,
         *  since all containers of one function share the bonus term. */
        bool operator<(const IdleEntry &o) const
        {
            if (clock != o.clock)
                return clock < o.clock;
            return seq < o.seq;
        }
    };
    static_assert(sizeof(IdleEntry) == 32, "IdleEntry has no implicit padding");

    /** A bucket head inside the k-way selection heap. */
    struct Head
    {
        double score;      //!< clock + per-function bonus
        std::uint64_t seq; //!< Container::seq tie-break
        cluster::ContainerId id;
        trace::FunctionId function;
        std::uint32_t next; //!< bucket index of the successor entry
    };

    /** Incremental idle-ranking state of one worker. */
    struct WorkerState
    {
        /** Per-function idle containers, ascending (clock, seq). */
        std::vector<std::vector<IdleEntry>> buckets;
        /** Functions with a non-empty bucket (swap-erase order). */
        std::vector<trace::FunctionId> active;
        /** active position per function, -1 when bucket empty. */
        std::vector<std::int32_t> active_slot;
        /** Bonus recorded by the latest scan touching this function. */
        std::vector<double> scan_bonus;
        /** Scan seq of that bonus (0 = never scanned). */
        std::vector<std::uint64_t> scan_seq;
        /** Selection scratch: the k-way merge heap. */
        std::vector<Head> heads;
        /** Engine idle epoch the buckets mirror; valid gates use. */
        std::uint64_t epoch = 0;
        bool valid = false;
    };

    WorkerState &stateFor(core::Engine &engine, cluster::WorkerId worker);
    void rebuild(core::Engine &engine, cluster::WorkerId worker,
                 WorkerState &ws);
    /** The Freq·Cost/(Size·|F|) bonus of Eq. 3, memoized per instant. */
    double bonusOf(core::Engine &engine, trace::FunctionId function);
    void insertIdle(WorkerState &ws, const cluster::Container &container);
    /**
     * Remove @p container's bucket entry.  When @p stale_priority is
     * non-null it receives the priority the brute-force scan would have
     * left in the container.  @return false if the entry was missing
     * (contract violation: caller invalidates).
     */
    bool removeIdle(WorkerState &ws, const cluster::Container &container,
                    double *stale_priority);

    std::vector<WorkerState> workers_;
    std::uint64_t scan_counter_ = 0;
    double bonus_weight_ = 1.0;

    /** bonusOf memo: same (now, priorityEpoch) ⇒ same bonus. */
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

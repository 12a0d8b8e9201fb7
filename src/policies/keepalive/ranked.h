/**
 * @file
 * The one idle ranking every keep-alive policy in this tree reclaims by.
 *
 * Each policy scores an idle container as
 *
 *     score(c) = key(c) + bonus(F(c))
 *
 * and evicts the lowest scores first.  The key is fixed while the
 * container sits idle; the bonus is shared by every container of one
 * function at one scan instant:
 *
 *  - CIP (Eq. 3), GDSF (Eq. 1), FaasCache-C (Eq. 2) and CodeCrunch:
 *    key = Clock, bonus = the Freq·Cost/Size term;
 *  - Belady: key = 0, bonus = −(next arrival);
 *  - Flame: key = recency, bonus = the hot-class offset;
 *  - TTL: key = idle_since; LRU, RainbowCake and Hybrid: key = recency;
 *    no bonus.
 *
 * So each worker keeps per-function buckets of its idle containers
 * ordered by (key, seq): within one bucket that is the score order at
 * any instant.  A reclaim scan computes one bonus per function with
 * idle containers and k-way-merges the bucket heads through a min-heap
 * on (key + bonus, seq).  Victims pop in the (score, seq) order a
 * rescore-and-sort of every idle container would give, in
 * O(F_w + popped · log F_w).  A policy without a bonus keeps one bucket
 * per worker instead, whose (key, seq) order is the whole ranking, so
 * its scans cost O(popped).  Heads compare the sum and seq and nothing
 * else: equal sums from different keys (0 + 6000 = 3000 + 3000) are
 * common, and a sort breaks them by seq alone.  The two orders can
 * differ only where rounding makes distinct keys of one function tie
 * in key + bonus; Flame's 2^50 offset keeps its sums exact.  The
 * tie-break is Container::seq, not the recyclable slot id: seq is the
 * creation order ids had when the slab was append-only.
 *
 * The key is computed when the container enters a bucket and stored in
 * Container::clock (CIP and GDSF key by their clock already): dispatch
 * refreshes last_used_at before onUse, so a recency key could not be
 * recomputed at removal.
 *
 * ## Priorities
 *
 * Container::priority is read in three places: the engine's eviction
 * watermark reads it from plan victims, CIP's onUse refreshes the clock
 * from it and GDSF's onEvicted folds it into its watermark.  A rescan
 * would leave each idle container the score of the last scan of its
 * worker, so the base writes exactly that where it is read: into each
 * popped container, and on every removal (onUse and onEvicted), rebuilt
 * from the bucket's scan record (the bonus and seq of the latest scan)
 * when the entry's insertion mark shows a scan saw it
 * idle.  It never writes priority in onIdle: a container no scan saw
 * keeps the value its policy gave it.
 *
 * Membership follows the engine's per-worker idle epoch: any change the
 * hooks did not observe (a CodeCrunch restore) drops the worker's
 * buckets, and the next scan rebuilds them from the idle list.
 */

#ifndef CIDRE_POLICIES_KEEPALIVE_RANKED_H
#define CIDRE_POLICIES_KEEPALIVE_RANKED_H

#include <cstdint>
#include <vector>

#include "core/policy.h"

namespace cidre::policies {

/** Base class: evict the lowest-scored idle containers first. */
class RankedKeepAlive : public core::KeepAlivePolicy
{
  public:
    /** A subclass that overrides onIdle, onUse or onEvicted calls the
     *  base hook first. */
    void onIdle(core::Engine &engine, cluster::Container &container) override;
    void onUse(core::Engine &engine, cluster::Container &container,
               core::StartType type) override;
    void onEvicted(core::Engine &engine,
                   const cluster::Container &container) override;
    void planReclaim(core::Engine &engine,
                     const core::ReclaimRequest &request,
                     core::ReclaimPlan &plan) override;

    /**
     * Checkpoint/restore of the buckets, the scan records and the scan
     * counter: removal rebuilds priorities from them, so they are real
     * state.  Subclasses with state of their own chain to these first.
     */
    void saveState(sim::StateWriter &writer) const override;
    void loadState(sim::StateReader &reader) override;

  protected:
    /** The part of the score fixed while @p container is idle; read
     *  once, when it enters a bucket. */
    virtual double key(core::Engine &engine,
                       const cluster::Container &container) = 0;

    /** The part shared by every idle container of @p function; read
     *  once per function per scan, and only with Bonus::PerFunction. */
    virtual double bonus(core::Engine &engine, trace::FunctionId function);

    /** Whether the score has a per-function bonus. */
    enum class Bonus : bool
    {
        None,        //!< score = key: one bucket per worker
        PerFunction, //!< one bucket per (worker, function)
    };

    explicit RankedKeepAlive(Bonus bonus)
        : per_function_(bonus == Bonus::PerFunction)
    {
    }

    /** Recency: last use, or creation for a never-used container. */
    static double lastUse(const cluster::Container &container);

    /**
     * Start a reclaim scan of @p worker: record each bucket's bonus and
     * prime the merge.  popLowest() then yields the worker's idle
     * containers; the order is valid until the next engine or hook call.
     */
    void beginScan(core::Engine &engine, cluster::WorkerId worker);

    /**
     * The next idle container of the scanned worker, lowest
     * (score, seq) first, with its priority set to its score; nullptr
     * when all are popped.  Does not skip ReclaimRequest::exclude.
     */
    cluster::Container *popLowest(core::Engine &engine);

  private:
    /** One idle container in its bucket.  Checkpointed raw, so its
     *  padding is an explicit zeroed member. */
    struct IdleEntry
    {
        double key;
        std::uint64_t seq; //!< Container::seq (stable across slot reuse)
        cluster::ContainerId id;
        std::uint32_t zero_pad = 0;
        /** Scan seq of the bucket at insertion. */
        std::uint64_t scan_mark;

        bool operator<(const IdleEntry &o) const
        {
            if (key != o.key)
                return key < o.key;
            return seq < o.seq;
        }
    };
    static_assert(sizeof(IdleEntry) == 32,
                  "IdleEntry has no implicit padding");

    /** A bucket head inside the k-way merge heap. */
    struct Head
    {
        double score;      //!< key + the bucket's scan bonus
        std::uint64_t seq; //!< Container::seq tie-break
        cluster::ContainerId id;
        std::uint32_t bucket;
        std::uint32_t next; //!< bucket index of the successor entry
    };

    /** The idle ranking of one worker. */
    struct WorkerState
    {
        /** Idle containers per bucket, ascending (key, seq). */
        std::vector<std::vector<IdleEntry>> buckets;
        /** Non-empty buckets (swap-erase order). */
        std::vector<std::uint32_t> active;
        /** active position per bucket, -1 when the bucket is empty. */
        std::vector<std::int32_t> active_slot;
        /** Bonus recorded by the latest scan of this bucket. */
        std::vector<double> scan_bonus;
        /** Scan seq of that bonus (0 = never scanned). */
        std::vector<std::uint64_t> scan_seq;
        /** Engine idle epoch the buckets mirror; valid gates use. */
        std::uint64_t epoch = 0;
        bool valid = false;
    };

    std::uint32_t bucketOf(const cluster::Container &container) const
    {
        return per_function_ ? container.function : 0;
    }
    WorkerState &stateFor(core::Engine &engine, cluster::WorkerId worker);
    void rebuild(core::Engine &engine, cluster::WorkerId worker,
                 WorkerState &ws);
    void insertIdle(WorkerState &ws, const cluster::Container &container);
    /** Mirror @p container leaving the idle list, if it was tracked. */
    void leave(core::Engine &engine, cluster::Container &container);
    /** Remove @p container's entry, rebuilding its priority when a scan
     *  saw it idle.  @return false if the entry was missing. */
    bool removeIdle(WorkerState &ws, cluster::Container &container);

    bool per_function_;
    std::vector<WorkerState> workers_;
    std::uint64_t scan_counter_ = 0;
    /** Merge scratch of the scan in progress. */
    std::vector<Head> heads_;
    cluster::WorkerId scan_worker_ = 0;
};

} // namespace cidre::policies

#endif // CIDRE_POLICIES_KEEPALIVE_RANKED_H

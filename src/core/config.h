/**
 * @file
 * Orchestration engine configuration.
 */

#ifndef CIDRE_CORE_CONFIG_H
#define CIDRE_CORE_CONFIG_H

#include <cstdint>

#include "cluster/cluster.h"
#include "sim/time.h"

namespace cidre::core {

/**
 * How speculative (BSS/CSS) provisions are issued.
 *
 * PerRequest follows §3.2 literally: every request choosing the
 * speculative path starts its own cold start, giving the worst-case
 * "never worse than a cold start" guarantee.  PerHead follows the §4
 * OpenLambda implementation: the per-function channel is evaluated at
 * its head, so at most one speculative provision is issued each time a
 * new request reaches the head — far fewer wasted cold starts under
 * deep bursts, at the cost of the per-request guarantee.
 */
enum class SpeculationMode : std::uint8_t
{
    PerRequest,
    PerHead,
};

/** Where a new container is provisioned. */
enum class PlacementPolicy : std::uint8_t
{
    /** Worker with the most free memory (default; balances occupancy). */
    MostFree,
    /** Rotate across workers regardless of occupancy. */
    RoundRobin,
    /**
     * Prefer the fastest (lowest speed-factor) worker that fits,
     * breaking ties by free memory — the placement IceBreaker-style
     * heterogeneity-aware systems use.
     */
    FastestFirst,
};

/**
 * Everything a simulation run needs besides the trace and the policy.
 *
 * Defaults reproduce the paper's main setup: a 3-worker cluster with a
 * 100 GB aggregate keep-alive cache, single-threaded containers, CSS
 * statistics over a 15-minute sliding window with a median T_e estimate.
 */
struct EngineConfig
{
    cluster::ClusterConfig cluster;

    /** Speculative-provision discipline (see SpeculationMode). */
    SpeculationMode speculation_mode = SpeculationMode::PerRequest;

    /** New-container placement strategy. */
    PlacementPolicy placement = PlacementPolicy::MostFree;

    /**
     * Drop memory-deferred speculative provisions whose channel has
     * already drained.  §3.2's BSS always pays for its cold starts, so
     * this defaults off; turning it on models an admission-controlled
     * variant (ablation knob).
     */
    bool cancel_stale_speculation = false;

    /** Intra-container thread slots (Fig. 21 knob). */
    std::uint32_t container_threads = 1;

    /** Period of the maintenance tick (TTL expiry, pre-warm agents). */
    sim::SimTime maintenance_interval = sim::sec(1);

    /** Horizon of the CSS history windows (Fig. 18 knob). */
    sim::SimTime stats_window = sim::minutes(15);

    /** Retention cap of each history window (see stats::SlidingWindow). */
    std::size_t window_max_samples = 512;

    /**
     * Which percentile of the execution-time window CSS uses as T_e
     * (Fig. 17 knob); a negative value selects the mean.
     */
    double te_percentile = 0.5;

    /** Seed for any stochastic policy behaviour (placement jitter etc.). */
    std::uint64_t seed = 42;

    /**
     * Intra-trial sharding: partition the cluster into this many
     * independent cells (each a contiguous slice of the workers with a
     * proportional share of the memory) and assign every function to
     * exactly one cell.  Placement, reclaim, the deferred-provision
     * queue and the maintenance tick are all cell-local, which is what
     * makes a sharded trial's result independent of how many threads
     * execute it (see core::ShardedEngine).
     *
     * 1 (the default) is the monolithic cluster of the paper's setup.
     * Values > 1 are a *model* parameter — a 4-cell cluster is a
     * different (partitioned) system than a monolithic one — and are
     * only accepted by ShardedEngine; the plain Engine rejects them so
     * a partitioned config cannot silently run unpartitioned.
     */
    std::uint32_t shard_cells = 1;

    /** Retain a per-request outcome log (needed by the what-if studies). */
    bool record_per_request = false;

    /**
     * Invocation-overhead SLO: requests waiting longer than this count
     * as violations in RunMetrics::slo_violations.  <= 0 disables.
     */
    sim::SimTime slo_us = 0;

    /** CodeCrunch: footprint shrink factor for compressed containers. */
    double compression_ratio = 3.0;

    /** CodeCrunch: restore latency as a fraction of the cold start. */
    double restore_cost_fraction = 0.15;

    /** Validate invariants; throws std::invalid_argument on bad values. */
    void validate() const;
};

} // namespace cidre::core

#endif // CIDRE_CORE_CONFIG_H

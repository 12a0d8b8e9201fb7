/**
 * @file
 * Per-function runtime state maintained by the orchestration engine.
 *
 * This mirrors OpenLambda's "function manager" as extended by the paper
 * (§4): the per-function FIFO channel of outstanding requests, container
 * membership lists, the sliding-window statistics CSS consumes, and the
 * aggregates behind Freq(F(c)) of Eq. 4.
 */

#ifndef CIDRE_CORE_FUNCTION_STATE_H
#define CIDRE_CORE_FUNCTION_STATE_H

#include <cstdint>
#include <deque>
#include <vector>

#include "cluster/container.h"
#include "sim/time.h"
#include "stats/sliding_window.h"
#include "trace/function_profile.h"

namespace cidre::sim {
class StateReader;
class StateWriter;
} // namespace cidre::sim

namespace cidre::core {

/** Mutable per-function orchestration state. */
class FunctionState
{
  public:
    FunctionState(trace::FunctionId id, sim::SimTime window_horizon,
                  std::size_t window_cap);

    trace::FunctionId id() const { return id_; }

    // --- container membership (engine-maintained) ----------------------

    /** Containers of this function that can accept a request now. */
    const std::vector<cluster::ContainerId> &available() const
    {
        return available_;
    }

    /** All cached (live or compressed) containers: the F(c) of Eq. 3. */
    const std::vector<cluster::ContainerId> &cached() const
    {
        return cached_;
    }

    /** |F(c)|: number of cached warm containers of this function. */
    std::uint32_t cachedCount() const
    {
        return static_cast<std::uint32_t>(cached_.size());
    }

    std::uint32_t busyCount() const { return busy_count_; }
    std::uint32_t provisioningCount() const { return provisioning_count_; }

    // Membership mutators (called only by the engine).
    void addAvailable(cluster::Container &c);
    void removeAvailable(cluster::Container &c,
                         std::deque<cluster::Container> &slab);
    bool isAvailable(const cluster::Container &c) const;
    void addCached(cluster::Container &c);
    void removeCached(cluster::Container &c,
                      std::deque<cluster::Container> &slab);
    void noteBusy(bool became_busy);
    void noteProvisioning(bool started);

    // --- the request channel -------------------------------------------

    std::deque<cluster::PendingRequest> &channel() { return channel_; }
    const auto &channel() const { return channel_; }

    // --- busy-completion view (oracle scaling) ---------------------------

    /**
     * Ascending completion times of this function's busy containers,
     * maintained incrementally by the engine at dispatch/complete (only
     * when the scaling policy opted in via wantsBusyCompletionView()).
     */
    const std::vector<sim::SimTime> &busyEndTimes() const
    {
        return busy_ends_;
    }

    void busyEndInsert(sim::SimTime t);
    void busyEndErase(sim::SimTime t);

    // --- invocation aggregates (Eq. 4) ----------------------------------

    /** Total invocations this function ever received (n_F). */
    std::uint64_t totalInvocations() const { return total_invocations_; }

    /** Record one arrival at @p now. */
    void noteArrival(sim::SimTime now);

    /**
     * Freq(F(c)) of Eq. 4: average invocations per minute since the
     * function's first request.  Decays as time passes without use.
     */
    double freqPerMinute(sim::SimTime now) const;

    /** Arrival timestamps within the recent window (rate estimators). */
    stats::SlidingWindow &arrivalWindow() { return arrival_window_; }
    const stats::SlidingWindow &arrivalWindow() const
    {
        return arrival_window_;
    }

    // --- CSS statistics (§3.2) ------------------------------------------

    /** Completed execution durations (source of T_e). */
    stats::SlidingWindow &execWindow() { return exec_window_; }
    const stats::SlidingWindow &execWindow() const { return exec_window_; }

    /** Observed cold-start latencies (source of T_p). */
    stats::SlidingWindow &coldWindow() { return cold_window_; }
    const stats::SlidingWindow &coldWindow() const { return cold_window_; }

    /**
     * Bumped whenever an input of the Eq. 3 priority bonus other than
     * time changes (arrival count, cached-container count): CIP reuses
     * a bonus computed at the same (now, priorityEpoch) pair.
     */
    std::uint64_t priorityEpoch() const { return priority_epoch_; }

    /** CSS per-function toggle: is the cold-start (BSS) path enabled? */
    bool bss_enabled = true;

    /** T_i: idle gap of the last speculatively created container (µs). */
    double t_i_us = 0.0;

    /** T_d: queuing delay of the most recent delayed warm start (µs). */
    double t_d_us = 0.0;

    /** The speculative container currently being tracked for T_i. */
    cluster::ContainerId tracked_spec_container = cluster::kInvalidContainer;
    sim::SimTime tracked_spec_ready_at = 0;

    /**
     * PerHead speculation: the last channel-head request a speculative
     * decision was issued for (prevents double provisioning when the
     * same head is re-evaluated across events).
     */
    std::uint64_t last_head_evaluated = UINT64_MAX;

    /** Checkpoint/restore of all mutable state. */
    void saveState(sim::StateWriter &writer) const;
    void loadState(sim::StateReader &reader);

  private:
    trace::FunctionId id_;
    std::vector<cluster::ContainerId> available_;
    std::vector<cluster::ContainerId> cached_;
    std::uint32_t busy_count_ = 0;
    std::uint32_t provisioning_count_ = 0;
    std::deque<cluster::PendingRequest> channel_;

    std::uint64_t total_invocations_ = 0;
    sim::SimTime first_request_at_ = -1;
    std::uint64_t priority_epoch_ = 0;

    std::vector<sim::SimTime> busy_ends_;

    stats::SlidingWindow exec_window_;
    stats::SlidingWindow cold_window_;
    stats::SlidingWindow arrival_window_;
};

} // namespace cidre::core

#endif // CIDRE_CORE_FUNCTION_STATE_H

/**
 * @file
 * The FaaS orchestration engine: an event-driven simulator of the
 * container lifecycle under a pluggable orchestration policy.
 *
 * The engine implements the mechanism (Figure 11 / Algorithm 2 of the
 * paper) and delegates every decision to the policy bundle:
 *
 *  1. An arriving request is dispatched into a free warm slot if one
 *     exists (true warm start).
 *  2. Otherwise the ScalingPolicy chooses: bind to a new container
 *     (vanilla cold start), bind to a busy container's queue (fixed
 *     queue), wait in the function's work-conserving channel, or wait
 *     AND provision speculatively (BSS/CSS).
 *  3. Channel requests are served by whichever resource frees first —
 *     a busy container finishing (delayed warm start) or a provision
 *     completing (cold start).
 *  4. Provisioning requires worker memory; the KeepAlivePolicy plans
 *     reclaims (REPLACE of Algorithm 2).  Insufficient reclaimable space
 *     defers the provision until memory frees.
 *  5. A maintenance tick drives TTL expiry and proactive agents.
 */

#ifndef CIDRE_CORE_ENGINE_H
#define CIDRE_CORE_ENGINE_H

#include <cstdint>
#include <deque>
#include <vector>

#include "cluster/cluster.h"
#include "core/config.h"
#include "core/function_state.h"
#include "core/metrics.h"
#include "core/policy.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "trace/trace_view.h"

namespace cidre::core {

/** Event-driven FaaS cluster simulator. */
class Engine
{
  public:
    /**
     * @param workload a view of a sealed trace (borrowed: the backing
     *                 Trace or TraceImage must outlive the engine).
     *                 Accepts a Trace lvalue via implicit conversion.
     */
    Engine(trace::TraceView workload, EngineConfig config,
           OrchestrationPolicy policy);

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Run the whole trace to completion and return the metrics.
     * Throws std::logic_error if any request failed to complete (which
     * would indicate an engine or policy bug, not a workload property).
     * Equivalent to begin() + finish().
     */
    RunMetrics run();

    // ---- stepped execution (benchmarks, allocation tests) ----------------

    /**
     * Arm the simulation (schedules the first arrival and maintenance
     * tick) without executing any event.  Single-shot, like run().
     */
    void begin();

    /**
     * Execute every event up to and including @p until (simulated time).
     * @return the number of events executed.
     */
    std::size_t stepUntil(sim::SimTime until);

    /** Drain the remaining events and return the metrics (see run()). */
    RunMetrics finish();

    /**
     * True once begin() ran and no event remains — i.e. a stepUntil()
     * loop has fully drained the simulation.  Drivers that step to
     * deadlines (a checkpointed run, ShardedEngine) stop on it.
     */
    bool drained() const { return ran_ && queue_.empty(); }

    // ---- live (stream-driven) execution ---------------------------------

    /**
     * Arm the engine for stream-driven execution: requests are not read
     * from the trace's request columns but admitted one at a time via
     * admit(), in arrival order.  The workload view still provides the
     * function table and profiles.  Single-shot, mutually exclusive
     * with begin()/run(); per-request recording is not supported in
     * live mode.  A request is held by value only until it completes,
     * so memory does not grow with the stream, and a live engine
     * checkpoints like a trace run (saveState() between admissions).
     *
     * Determinism bridge: a live run admitted a trace's exact arrival
     * sequence executes the exact event interleaving of begin()/
     * finish() on that trace — the admission's place among equal-time
     * events is *reserved* at the same program point where trace mode
     * schedules the next arrival (see sim::EventQueue::reserveSeq), so
     * metrics and RNG draws are bit-identical.
     */
    void beginLive();

    /**
     * Admit one request into the live simulation: the orchestration
     * decision (placement, scaling, queueing) runs synchronously before
     * this returns, as do any pending simulated events (completions,
     * maintenance ticks) ordered before the admission.  @p when must be
     * nondecreasing across admissions and not behind the virtual clock.
     * Throws std::invalid_argument, naming the request, on a negative
     * @p exec_us or one ending past sim::kTimeInfinity / 2.
     * @return the admitted request's index.
     */
    std::uint64_t admit(sim::SimTime when, trace::FunctionId function,
                        sim::SimTime exec_us);

    /**
     * Declare the stream finished: no further admit() calls.  Pending
     * simulated work (in-flight executions, queued requests) then
     * drains through stepUntil()/finish() exactly like a trace run
     * whose arrivals ran out.
     */
    void closeStream();

    // ---- read access for policies --------------------------------------

    sim::SimTime now() const { return queue_.now(); }
    const EngineConfig &config() const { return config_; }
    const trace::TraceView &workload() const { return trace_; }
    cluster::Cluster &clusterRef() { return cluster_; }
    const cluster::Cluster &clusterRef() const { return cluster_; }
    RunMetrics &metrics() { return metrics_; }

    FunctionState &functionState(trace::FunctionId id)
    {
        return states_.at(id);
    }
    const FunctionState &functionState(trace::FunctionId id) const
    {
        return states_.at(id);
    }

    /** Idle (reclaimable) containers currently on @p worker. */
    const std::vector<cluster::ContainerId> &
    idleContainersOn(cluster::WorkerId worker) const
    {
        return worker_idle_.at(worker);
    }

    /**
     * Modification epoch of @p worker's idle list: bumped on every
     * membership change.  Policies use it to validate incrementally
     * maintained eviction rankings (a matching epoch guarantees the
     * list's membership is unchanged since the ranking was built).
     */
    std::uint64_t idleEpoch(cluster::WorkerId worker) const
    {
        return worker_idle_epoch_.at(worker);
    }

    /** Simulation events executed so far (throughput telemetry). */
    std::uint64_t eventsExecuted() const { return queue_.executedCount(); }

    /**
     * T_e estimate: the configured percentile (or mean) of the recent
     * execution-time window; falls back to the profile's median when no
     * history exists yet.
     */
    sim::SimTime estimateExecTime(trace::FunctionId id) const;

    /** T_p estimate: median recent cold-start latency (profile fallback). */
    sim::SimTime estimateColdTime(trace::FunctionId id) const;

    // ---- oracle access (Offline policies only) --------------------------

    /** Next trace arrival of @p id strictly after @p t (or infinity). */
    sim::SimTime nextArrivalAfter(trace::FunctionId id, sim::SimTime t) const;

    /**
     * Ascending completion times of the active executions of @p id,
     * maintained incrementally (no per-call work).  Only available when
     * the scaling policy opted in via wantsBusyCompletionView().
     */
    const std::vector<sim::SimTime> &
    busyCompletionView(trace::FunctionId id) const;

    // ---- agent API ------------------------------------------------------

    /**
     * Proactively provision a container for @p id (pre-warming).
     * @return false if no worker had (or could reclaim) the memory.
     */
    bool prewarm(trace::FunctionId id);

    /** Evict an idle container (agent-driven deactivation / expiry). */
    void reapContainer(cluster::ContainerId id, bool expired);

    // ---- checkpoint/restore ---------------------------------------------

    /**
     * Serialize the complete mutable simulation state — cursors, RNG,
     * pending events, cluster, per-function state, metrics and the
     * policy bundle — such that loadState() on a freshly-constructed
     * engine (same workload, config and policy) resumes bit-identically
     * to the uninterrupted run.  Must be called at a quiescent point
     * (between events, i.e. outside stepUntil()).
     */
    void saveState(sim::StateWriter &writer) const;

    /**
     * Restore a checkpoint written by saveState().  The engine must be
     * freshly constructed (begin() not called) with the same workload,
     * config and policy bundle; afterwards stepUntil()/finish() (and
     * admit(), live) continue exactly where the checkpointed run left
     * off.  Throws std::logic_error on reuse and std::runtime_error on
     * a payload this engine could not have saved, including a corrupt
     * event or request record and requests that are not conserved.
     */
    void loadState(sim::StateReader &reader);

    // ---- fork-point mutation (tune sweeps) ------------------------------

    /**
     * Replace the policy bundle mid-run (the `tune` fork point): the new
     * bundle starts with fresh internal state and rebuilds its rankings
     * lazily from the engine-owned idle lists and windows, exactly as if
     * it had been restored from a checkpoint with empty policy state.
     * Deterministic: a warm-forked trial and a cold trial that swap at
     * the same instant see identical engine state, so their suffixes are
     * bit-identical.  Must be called at a quiescent point (between
     * events).  Throws std::invalid_argument on an incomplete bundle and
     * std::logic_error when the new scaling policy wants the
     * busy-completion view but the outgoing one did not maintain it
     * (the per-function busy-end history cannot be reconstructed).
     */
    void swapPolicy(OrchestrationPolicy policy);

    /**
     * Reseed the engine RNG (tune forks: per-trial substreams keyed by
     * the *stable trial id*, applied identically on the warm and cold
     * paths so the two stay bit-identical).
     */
    void reseed(std::uint64_t seed);

    /**
     * Change the T_e percentile knob mid-run (tune fork knob): the next
     * estimateExecTime() reads the window at the new percentile.
     */
    void setTePercentile(double percentile)
    {
        config_.te_percentile = percentile;
    }

  private:
    struct DeferredProvision
    {
        trace::FunctionId function;
        cluster::ProvisionReason reason;
    };

    /** Run the handler of @p event's kind: the one event switch. */
    void dispatch(const sim::Event &event);

    // Event handlers.
    void handleArrival(trace::FunctionId function, sim::SimTime exec_us);
    void handleProvisionComplete(cluster::ContainerId id);
    void handleExecutionComplete(cluster::ContainerId id,
                                 sim::SimTime exec_us);
    void handleMaintenance();

    void scheduleNextArrival();
    void scheduleTickIfNeeded();

    /** Dispatch a request into a container and start its execution. */
    void dispatchRequest(cluster::Container &c,
                         const cluster::PendingRequest &request,
                         StartType type);

    /** Fill free slots of @p c from its bound queue / function channel. */
    void drainQueuesInto(cluster::Container &c, StartType type);

    /**
     * PerHead speculation: re-run the scaling decision for the new
     * channel head (once per head) and provision if it asks to.
     */
    void evaluateChannelHead(FunctionState &fs);

    /** Provision a container for @p req (a Demand one bound to @p bound),
     *  deferring on memory exhaustion. */
    void provision(const DeferredProvision &req,
                   const cluster::PendingRequest *bound = nullptr);

    /** Attempt to start provisioning right now. @return success. */
    bool tryStartProvision(const DeferredProvision &req,
                           const cluster::PendingRequest *bound);

    /**
     * Fill @p order with the worker visiting sequence for a provision,
     * per the placement policy.  Single-worker clusters skip the sort.
     */
    void buildPlacementOrder(std::vector<cluster::WorkerId> &order,
                             std::uint64_t round_robin_cursor) const;

    /**
     * Reclaim (via the keep-alive policy) until @p need_mb fit on
     * @p worker, in bounded rounds.  @p watermark accumulates the max
     * evicted priority; @p exclude is never reclaimed (used when making
     * room to inflate a compressed container).
     * @return true if the space is available afterwards.
     */
    bool ensureFreeOn(cluster::WorkerId worker, std::int64_t need_mb,
                      double &watermark,
                      cluster::ContainerId exclude =
                          cluster::kInvalidContainer,
                      trace::FunctionId beneficiary =
                          trace::kInvalidFunction);

    /** Re-attempt deferred provisions (FIFO) after memory freed. */
    void retryDeferred();

    /** Begin restoring a compressed container for a bound request. */
    void startRestore(cluster::Container &c,
                      const cluster::PendingRequest &request);

    /** Find a compressed container of @p fs that fits its inflation. */
    cluster::Container *findRestorableContainer(FunctionState &fs);

    void evictContainer(cluster::ContainerId id, bool expired);

    void addToWorkerIdle(cluster::Container &c);
    void removeFromWorkerIdle(cluster::Container &c);

    void noteMemory();

    /** Report the T_i outcome for a tracked speculative container. */
    void reportSpeculativeOutcome(FunctionState &fs, cluster::Container &c,
                                  bool reused);

    trace::TraceView trace_;
    EngineConfig config_;
    OrchestrationPolicy policy_;
    cluster::Cluster cluster_;
    sim::EventQueue queue_;
    sim::Rng rng_;
    std::vector<FunctionState> states_;
    std::vector<std::vector<cluster::ContainerId>> worker_idle_;
    /** Per-worker idle-list modification counters (see idleEpoch()). */
    std::vector<std::uint64_t> worker_idle_epoch_;
    std::deque<DeferredProvision> deferred_;
    /** The bound requests of deferred_'s Demand entries, in order; kept
     *  apart so that the unbound entries cidre defers stay 8 bytes. */
    std::deque<cluster::PendingRequest> deferred_requests_;
    RunMetrics metrics_;

    // Reusable hot-path scratch: leased (moved out and back) by the
    // functions that fill them, so steady-state operation performs no
    // per-call vector allocation even if a policy callback re-enters.
    std::vector<cluster::WorkerId> placement_scratch_;
    std::vector<cluster::ContainerId> compress_scratch_;
    std::vector<cluster::ContainerId> evict_scratch_;
    std::vector<cluster::ContainerId> expired_scratch_;
    ReclaimPlan plan_scratch_;

    /** Reserved queue position of the next admission (live mode). */
    std::uint64_t live_next_seq_ = 0;

    /** Requests arrived so far: the next arrival's index. */
    std::uint64_t arrivals_ = 0;
    std::uint64_t completed_requests_ = 0;
    std::uint64_t round_robin_cursor_ = 0;
    /** Live compressed containers (gates the restore-path scan). */
    std::int64_t compressed_live_ = 0;
    bool in_retry_ = false;
    bool tick_scheduled_ = false;
    bool ran_ = false;
    /** Stream-driven run (beginLive()). */
    bool live_ = false;
    /** No arrival follows: closeStream(), or the trace ran out. */
    bool stream_closed_ = false;
    /** Scaling policy opted into the per-function busy-end view. */
    bool track_busy_ends_ = false;
};

} // namespace cidre::core

#endif // CIDRE_CORE_ENGINE_H

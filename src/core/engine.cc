#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/serialize.h"

namespace cidre::core {

namespace {

/**
 * Borrow a member scratch buffer for the duration of a scope: the
 * buffer is moved out (so a re-entrant callback sees an empty member
 * and safely allocates its own) and moved back, grown, on scope exit.
 * Steady-state, non-re-entrant use allocates nothing.
 */
template <typename Buffer>
class ScratchLease
{
  public:
    explicit ScratchLease(Buffer &owner)
        : owner_(owner), buffer_(std::move(owner))
    {
        buffer_.clear();
    }
    ~ScratchLease() { owner_ = std::move(buffer_); }
    ScratchLease(const ScratchLease &) = delete;
    ScratchLease &operator=(const ScratchLease &) = delete;

    Buffer &operator*() { return buffer_; }

  private:
    Buffer &owner_;
    Buffer buffer_;
};

// The four event kinds (sim::Event::kind); Engine::dispatch switches on
// them.  The values are part of the checkpoint format.
constexpr std::uint32_t kEvArrival = 1;           //!< a = function, b = exec
constexpr std::uint32_t kEvMaintenance = 2;       //!< no payload
constexpr std::uint32_t kEvExecComplete = 3;      //!< a = cid, b = exec
constexpr std::uint32_t kEvProvisionComplete = 4; //!< a = cid

/** The latest completion time any request may have (see checkIntake). */
constexpr sim::SimTime kTimeHorizon = sim::kTimeInfinity / 2;

/** Neither time is negative and the request completes by kTimeHorizon. */
bool
withinHorizon(sim::SimTime arrival_us, sim::SimTime exec_us)
{
    return arrival_us >= 0 && exec_us >= 0 && arrival_us <= kTimeHorizon &&
        exec_us <= kTimeHorizon - arrival_us;
}

/** The one intake check (a trace row scheduled, an admission): no time
 *  sum downstream may overflow. */
void
checkIntake(std::uint64_t index, sim::SimTime arrival_us,
            sim::SimTime exec_us)
{
    if (exec_us < 0 || !withinHorizon(arrival_us, exec_us)) {
        throw std::invalid_argument(
            "Engine: request " + std::to_string(index) +
            (exec_us < 0
                 ? ": negative exec time"
                 : ": arrival + exec exceeds the simulated time horizon"));
    }
}

/** The policy-facing view of a record held for @p function. */
trace::Request
requestOf(trace::FunctionId function, const cluster::PendingRequest &r)
{
    return trace::Request{r.index, function, r.arrival_us, r.exec_us};
}

} // namespace

void
Engine::buildPlacementOrder(std::vector<cluster::WorkerId> &order,
                            std::uint64_t round_robin_cursor) const
{
    const cluster::Cluster &cl = cluster_;
    order.resize(cl.workerCount());
    // Single-worker clusters (the common unit-test configuration) have
    // exactly one visiting order; skip the comparator work entirely.
    if (order.size() == 1) {
        order[0] = 0;
        return;
    }
    for (cluster::WorkerId i = 0; i < order.size(); ++i)
        order[i] = i;
    switch (config_.placement) {
      case PlacementPolicy::MostFree:
        std::sort(order.begin(), order.end(),
                  [&](cluster::WorkerId a, cluster::WorkerId b) {
                      const auto fa = cl.worker(a).freeMb();
                      const auto fb = cl.worker(b).freeMb();
                      return fa != fb ? fa > fb : a < b;
                  });
        break;
      case PlacementPolicy::RoundRobin:
        std::rotate(order.begin(),
                    order.begin() +
                        static_cast<std::ptrdiff_t>(round_robin_cursor %
                                                    order.size()),
                    order.end());
        break;
      case PlacementPolicy::FastestFirst:
        std::sort(order.begin(), order.end(),
                  [&](cluster::WorkerId a, cluster::WorkerId b) {
                      const double sa = cl.worker(a).speedFactor();
                      const double sb = cl.worker(b).speedFactor();
                      if (sa != sb)
                          return sa < sb;
                      const auto fa = cl.worker(a).freeMb();
                      const auto fb = cl.worker(b).freeMb();
                      return fa != fb ? fa > fb : a < b;
                  });
        break;
    }
}

Engine::Engine(trace::TraceView workload, EngineConfig config,
               OrchestrationPolicy policy)
    : trace_(workload),
      config_(std::move(config)),
      policy_(std::move(policy)),
      cluster_(config_.cluster),
      rng_(config_.seed)
{
    config_.validate();
    if (config_.shard_cells != 1) {
        throw std::invalid_argument(
            "Engine: shard_cells > 1 requires ShardedEngine (the plain "
            "engine would simulate the monolithic, unpartitioned cluster)");
    }
    if (!trace_.valid())
        throw std::invalid_argument("Engine: unbound workload view");
    if (!policy_.scaling || !policy_.keep_alive)
        throw std::invalid_argument("Engine: policy bundle incomplete");

    // Every function must fit on at least one worker or the workload can
    // never be scheduled at all.
    std::int64_t max_worker_mb = 0;
    for (const auto &worker : cluster_.workers())
        max_worker_mb = std::max(max_worker_mb, worker.capacityMb());
    for (const auto &fn : trace_.functions()) {
        if (fn.memory_mb > max_worker_mb) {
            throw std::invalid_argument(
                "Engine: function " + fn.name + " (" +
                std::to_string(fn.memory_mb) +
                " MB) exceeds every worker's capacity");
        }
    }

    states_.reserve(trace_.functionCount());
    for (trace::FunctionId id = 0; id < trace_.functionCount(); ++id) {
        states_.emplace_back(id, config_.stats_window,
                             config_.window_max_samples);
    }
    worker_idle_.resize(cluster_.workerCount());
    worker_idle_epoch_.assign(cluster_.workerCount(), 0);
    track_busy_ends_ = policy_.scaling->wantsBusyCompletionView();
    if (config_.record_per_request)
        metrics_.outcomes.resize(trace_.requestCount());
}

RunMetrics
Engine::run()
{
    begin();
    return finish();
}

void
Engine::begin()
{
    if (ran_)
        throw std::logic_error("Engine::run: single-shot engine reused");
    ran_ = true;

    scheduleNextArrival();
    scheduleTickIfNeeded();
}

void
Engine::beginLive()
{
    if (ran_)
        throw std::logic_error("Engine::run: single-shot engine reused");
    if (config_.record_per_request)
        throw std::logic_error(
            "Engine: live mode does not support per-request recording "
            "(outcome storage is sized by the trace, not the stream)");
    live_ = true;
    ran_ = true;

    // Mirrors begin() exactly: the first admission's queue position is
    // claimed here, where trace mode schedules arrival 0, and the
    // maintenance tick chain starts right after it.
    scheduleNextArrival();
    scheduleTickIfNeeded();
}

std::uint64_t
Engine::admit(sim::SimTime when, trace::FunctionId function,
              sim::SimTime exec_us)
{
    if (!live_)
        throw std::logic_error("Engine::admit: beginLive() first");
    if (stream_closed_)
        throw std::logic_error("Engine::admit: stream already closed");
    if (function >= states_.size())
        throw std::out_of_range("Engine::admit: unknown function id");
    if (when < queue_.now())
        throw std::logic_error(
            "Engine::admit: admission behind the virtual clock (the "
            "driver must not step past an arrival before admitting it)");
    checkIntake(arrivals_, when, exec_us);

    const std::uint64_t index = arrivals_;
    const std::uint64_t seq = live_next_seq_;
    queue_.scheduleReserved(when, seq, kEvArrival, function,
                            static_cast<std::uint64_t>(exec_us));
    // Run every event ordered before the admission, then the admission
    // itself (handleArrival re-reserves live_next_seq_ for the next
    // one).  Events *after* the arrival — even at the same timestamp —
    // stay pending, so the interleaving matches trace mode no matter
    // where the stream pauses.
    for (;;) {
        const sim::Event event = queue_.pop();
        dispatch(event);
        if (event.seq == seq)
            return index;
    }
}

void
Engine::closeStream()
{
    if (!live_)
        throw std::logic_error("Engine::closeStream: beginLive() first");
    stream_closed_ = true;
}

std::size_t
Engine::stepUntil(sim::SimTime until)
{
    if (!ran_)
        throw std::logic_error("Engine::stepUntil: begin() not called");
    std::size_t count = 0;
    for (; !queue_.empty() && queue_.peekTime() <= until; ++count)
        dispatch(queue_.pop());
    queue_.advanceTo(until);
    return count;
}

RunMetrics
Engine::finish()
{
    if (!ran_)
        throw std::logic_error("Engine::finish: begin() not called");
    if (live_ && !stream_closed_)
        throw std::logic_error("Engine::finish: closeStream() first");
    while (!queue_.empty())
        dispatch(queue_.pop());

    // Each arrival schedules the next: a drained queue has seen them all.
    if (completed_requests_ != arrivals_) {
        throw std::logic_error(
            "Engine: only " + std::to_string(completed_requests_) + " of " +
            std::to_string(arrivals_) +
            " requests completed — orchestration deadlock");
    }
    // Finalize at the last event, not at now(): stepUntil() advances the
    // clock to its deadline, which may overshoot the last event, and the
    // time-integral metrics (makespan, average memory) must not depend
    // on where a driver's step boundaries fell.
    metrics_.finalize(queue_.lastEventTime());
    return std::move(metrics_);
}

void
Engine::scheduleNextArrival()
{
    if (!live_ && arrivals_ >= trace_.requestCount()) {
        stream_closed_ = true;
        return;
    }
    // The next arrival's place in the FIFO order among equal-time
    // events is decided *here*, in trace and live mode alike.  The
    // arrival waits in the queue's reserved lane, beside the heap: the
    // stream is in time order, so it never needs sifting.
    const std::uint64_t seq = queue_.reserveSeq();
    if (live_) {
        // The next admission's payload is unknown; admit() spends the
        // reservation.
        live_next_seq_ = seq;
        return;
    }
    // The one read of a trace row: the event carries it from here on.
    const sim::SimTime arrival = trace_.arrivalUs(arrivals_);
    const sim::SimTime exec = trace_.execUs(arrivals_);
    checkIntake(arrivals_, arrival, exec);
    queue_.scheduleReserved(arrival, seq, kEvArrival,
                            trace_.requestFunction(arrivals_),
                            static_cast<std::uint64_t>(exec));
}

void
Engine::scheduleTickIfNeeded()
{
    // Ticks must keep running until the very last request completed —
    // TTL expiry and pre-warm agents stay active through idle gaps in
    // the arrival stream, and a live stream may admit more until it
    // closes.
    if (tick_scheduled_ ||
        (completed_requests_ == arrivals_ && stream_closed_)) {
        return;
    }
    tick_scheduled_ = true;
    queue_.scheduleAfter(config_.maintenance_interval, kEvMaintenance);
}

void
Engine::handleArrival(trace::FunctionId function, sim::SimTime exec_us)
{
    const cluster::PendingRequest pending{arrivals_++, now(), exec_us};
    const trace::Request req = requestOf(function, pending);
    FunctionState &fs = states_[function];
    fs.noteArrival(now());
    if (policy_.agent)
        policy_.agent->onRequestObserved(*this, req);

    if (!fs.available().empty()) {
        // Case I of Algorithm 2: a free warm slot — a true warm start.
        cluster::Container &c =
            cluster_.container(fs.available().back());
        dispatchRequest(c, pending, StartType::Warm);
    } else if (cluster::Container *victim = findRestorableContainer(fs)) {
        // A compressed container can be inflated cheaper than a cold
        // start (CodeCrunch path).
        startRestore(*victim, pending);
    } else {
        // Case II: consult the scaling policy.
        if (config_.record_per_request) {
            // Record the counterfactual queuing delay for the what-if
            // analyses: the earliest busy-container completion.
            sim::SimTime earliest = sim::kTimeInfinity;
            for (const cluster::ContainerId cid : fs.cached()) {
                const cluster::Container &c = cluster_.container(cid);
                if (c.busy())
                    earliest = std::min(earliest, c.busy_until);
            }
            metrics_.outcomes[pending.index].counterfactual_queue_us =
                earliest == sim::kTimeInfinity ? -1 : earliest - now();
        }
        ScalingChoice choice =
            policy_.scaling->onNoFreeContainer(*this, req);

        // Starvation guard: waiting is only sound if some container of
        // this function will eventually free up or materialize.
        const bool has_future_capacity =
            fs.busyCount() > 0 || fs.provisioningCount() > 0;
        if ((choice.decision == ScalingDecision::Wait ||
             choice.decision == ScalingDecision::QueueBound) &&
            !has_future_capacity) {
            choice.decision = ScalingDecision::Speculative;
        }
        if (choice.decision == ScalingDecision::QueueBound) {
            // Validate the queue target; fall back to a plain cold start
            // on a policy mistake rather than corrupting state.
            if (choice.target == cluster::kInvalidContainer ||
                !cluster_.container(choice.target).busy() ||
                cluster_.container(choice.target).function != req.function) {
                choice.decision = ScalingDecision::ColdStartBound;
            }
        }

        switch (choice.decision) {
          case ScalingDecision::ColdStartBound:
            provision({function, cluster::ProvisionReason::Demand}, &pending);
            break;
          case ScalingDecision::QueueBound:
            cluster_.container(choice.target).bound_queue.push_back(pending);
            break;
          case ScalingDecision::Wait:
            fs.channel().push_back(pending);
            break;
          case ScalingDecision::Speculative:
            fs.channel().push_back(pending);
            if (config_.speculation_mode == SpeculationMode::PerRequest ||
                fs.channel().size() == 1) {
                fs.last_head_evaluated = pending.index;
                provision({function, cluster::ProvisionReason::Speculative});
            }
            break;
        }
    }

    scheduleNextArrival();
    scheduleTickIfNeeded();
}

void
Engine::dispatch(const sim::Event &event)
{
    switch (event.kind) {
      case kEvArrival:
        handleArrival(event.a, static_cast<sim::SimTime>(event.b));
        break;
      case kEvMaintenance:
        handleMaintenance();
        break;
      case kEvExecComplete:
        handleExecutionComplete(event.a, static_cast<sim::SimTime>(event.b));
        break;
      case kEvProvisionComplete:
        handleProvisionComplete(event.a);
        break;
      default:
        throw std::logic_error("Engine: unknown event kind");
    }
}

void
Engine::dispatchRequest(cluster::Container &c,
                        const cluster::PendingRequest &req, StartType type)
{
    assert(c.live());
    assert(c.active < c.threads);
    FunctionState &fs = states_[c.function];

    const bool was_busy = c.active > 0;
    if (!was_busy) {
        if (c.idle_slot >= 0)
            removeFromWorkerIdle(c);
        fs.noteBusy(true);
    }
    ++c.active;
    if (!c.hasFreeSlot() && fs.isAvailable(c))
        fs.removeAvailable(c, cluster_.slab());

    const sim::SimTime wait = now() - req.arrival_us;
    assert(wait >= 0);
    c.last_used_at = now();
    ++c.use_count;
    const sim::SimTime prev_until = c.busy_until;
    c.busy_until = std::max(c.busy_until, now() + req.exec_us);
    if (track_busy_ends_) {
        if (!was_busy)
            fs.busyEndInsert(c.busy_until);
        else if (c.busy_until != prev_until) {
            fs.busyEndErase(prev_until);
            fs.busyEndInsert(c.busy_until);
        }
    }

    // T_i bookkeeping: first reuse of the tracked speculative container.
    if (fs.tracked_spec_container == c.id)
        reportSpeculativeOutcome(fs, c, /*reused=*/true);

    metrics_.recordStart(type, wait, req.exec_us);
    if (config_.slo_us > 0 && wait > config_.slo_us)
        ++metrics_.slo_violations;
    if (config_.record_per_request) {
        RequestOutcome &outcome = metrics_.outcomes[req.index];
        outcome.type = type;
        outcome.wait_us = wait;
        outcome.exec_us = req.exec_us;
    }
    policy_.keep_alive->onUse(*this, c, type);
    policy_.scaling->onDispatch(*this, requestOf(c.function, req), type,
                                wait);

    queue_.scheduleAfter(req.exec_us, kEvExecComplete, c.id,
                         static_cast<std::uint64_t>(req.exec_us));
}

void
Engine::drainQueuesInto(cluster::Container &c, StartType type)
{
    FunctionState &fs = states_[c.function];
    while (c.hasFreeSlot()) {
        cluster::PendingRequest next;
        if (!c.bound_queue.empty()) {
            next = c.bound_queue.front();
            c.bound_queue.pop_front();
        } else if (!fs.channel().empty()) {
            next = fs.channel().front();
            fs.channel().pop_front();
        } else {
            break;
        }
        dispatchRequest(c, next, type);
    }
}

void
Engine::handleProvisionComplete(cluster::ContainerId id)
{
    cluster::Container &c = cluster_.container(id);
    assert(c.provisioning());
    FunctionState &fs = states_[c.function];

    const bool was_restore = c.restoring;
    c.restoring = false;
    c.state = cluster::ContainerState::Live;
    fs.noteProvisioning(false);
    fs.addCached(c);

    if (!was_restore) {
        // A genuine cold-start latency observation feeds T_p.
        fs.coldWindow().add(now(), static_cast<double>(
            c.provision_ends_at - c.created_at));
    }

    const StartType type =
        was_restore ? StartType::Restored : StartType::Cold;
    drainQueuesInto(c, type);

    if (c.active == 0) {
        // Nobody needed it (the speculative wait won, or this was a
        // pre-warm): the container idles in the cache.
        c.idle_since = now();
        fs.addAvailable(c);
        addToWorkerIdle(c);
        policy_.keep_alive->onIdle(*this, c);
        if (c.reason == cluster::ProvisionReason::Speculative) {
            // Begin measuring T_i for this function (§3.2).
            fs.tracked_spec_container = c.id;
            fs.tracked_spec_ready_at = now();
        }
        retryDeferred();
    } else if (c.hasFreeSlot()) {
        fs.addAvailable(c);
    }

    if (c.active > 0 && !was_restore &&
        c.reason == cluster::ProvisionReason::Speculative) {
        // The speculative container was needed immediately: T_i = 0.
        policy_.scaling->onSpeculativeOutcome(*this, c.function, 0, true);
    }
    evaluateChannelHead(fs);
}

void
Engine::handleExecutionComplete(cluster::ContainerId id, sim::SimTime exec_us)
{
    cluster::Container &c = cluster_.container(id);
    assert(c.busy());
    FunctionState &fs = states_[c.function];

    --c.active;
    if (c.active == 0) {
        fs.noteBusy(false);
        if (track_busy_ends_)
            fs.busyEndErase(c.busy_until);
    }
    ++completed_requests_;

    // Completed executions feed the T_e window (§3.2).
    fs.execWindow().add(now(), static_cast<double>(exec_us));

    // Work conservation: the freed slot immediately serves queued work
    // as a delayed warm start.
    drainQueuesInto(c, StartType::DelayedWarm);

    if (c.hasFreeSlot() && !fs.isAvailable(c))
        fs.addAvailable(c);
    if (c.active == 0 && c.live()) {
        c.idle_since = now();
        addToWorkerIdle(c);
        policy_.keep_alive->onIdle(*this, c);
        retryDeferred();
    }
    evaluateChannelHead(fs);
    scheduleTickIfNeeded();
}

void
Engine::evaluateChannelHead(FunctionState &fs)
{
    if (config_.speculation_mode != SpeculationMode::PerHead)
        return;
    if (fs.channel().empty())
        return;
    const cluster::PendingRequest &head = fs.channel().front();
    if (fs.last_head_evaluated == head.index)
        return;
    fs.last_head_evaluated = head.index;

    const ScalingChoice choice =
        policy_.scaling->onNoFreeContainer(*this, requestOf(fs.id(), head));
    const bool wants_provision =
        choice.decision == ScalingDecision::Speculative ||
        choice.decision == ScalingDecision::ColdStartBound;
    // Starvation guard: a waiting head with nothing that could ever
    // serve it must get a container regardless of the decision.
    const bool must_provision =
        fs.busyCount() == 0 && fs.provisioningCount() == 0;
    if (wants_provision || must_provision)
        provision({fs.id(), cluster::ProvisionReason::Speculative});
}

void
Engine::handleMaintenance()
{
    tick_scheduled_ = false;

    ScratchLease lease(expired_scratch_);
    std::vector<cluster::ContainerId> &expired = *lease;
    policy_.keep_alive->collectExpired(*this, now(), expired);
    for (const cluster::ContainerId id : expired) {
        const cluster::Container &c = cluster_.container(id);
        if ((c.live() && c.active == 0) || c.compressed())
            reapContainer(id, /*expired=*/true);
    }

    if (policy_.agent)
        policy_.agent->onTick(*this, now());

    retryDeferred();
    scheduleTickIfNeeded();
}

void
Engine::provision(const DeferredProvision &req,
                  const cluster::PendingRequest *bound)
{
    // deferred_requests_ pairs with deferred_'s Demand entries in order.
    assert((bound != nullptr) ==
           (req.reason == cluster::ProvisionReason::Demand));
    if (!tryStartProvision(req, bound)) {
        deferred_.push_back(req);
        if (bound != nullptr)
            deferred_requests_.push_back(*bound);
        ++metrics_.deferred_provisions;
    }
}

bool
Engine::tryStartProvision(const DeferredProvision &req,
                          const cluster::PendingRequest *bound)
{
    const trace::FunctionProfile &profile = trace_.function(req.function);
    const std::int64_t need = profile.memory_mb;

    ScratchLease lease(placement_scratch_);
    std::vector<cluster::WorkerId> &order = *lease;
    buildPlacementOrder(order, round_robin_cursor_++);
    for (const cluster::WorkerId wid : order) {
        cluster::Worker &host = cluster_.worker(wid);
        double watermark = 0.0;
        if (!ensureFreeOn(wid, need, watermark, cluster::kInvalidContainer,
                          req.function)) {
            continue;
        }

        // Start the cold start on this worker.
        const cluster::ContainerId cid = cluster_.createContainer(
            req.function, wid, need, config_.container_threads, req.reason,
            now());
        cluster::Container &c = cluster_.container(cid);
        ++metrics_.containers_created;
        metrics_.provisioned_mb += static_cast<std::uint64_t>(need);
        states_[req.function].noteProvisioning(true);

        sim::SimTime cost = static_cast<sim::SimTime>(
            static_cast<double>(profile.cold_start_us) *
            host.speedFactor());
        if (policy_.agent)
            cost = policy_.agent->provisionCost(*this, profile, wid, cost);
        cost = std::max<sim::SimTime>(cost, 1);
        c.provision_ends_at = now() + cost;
        if (bound != nullptr)
            c.bound_queue.push_back(*bound);
        policy_.keep_alive->onAdmit(*this, c, watermark);
        noteMemory();

        queue_.schedule(c.provision_ends_at, kEvProvisionComplete, cid);
        return true;
    }
    return false;
}

bool
Engine::ensureFreeOn(cluster::WorkerId worker, std::int64_t need_mb,
                     double &watermark, cluster::ContainerId exclude,
                     trace::FunctionId beneficiary)
{
    cluster::Worker &host = cluster_.worker(worker);

    // Reclaim in (bounded) rounds: applying a plan can itself consume
    // memory — e.g. RainbowCake demotes evicted containers into layer
    // caches — so a single round may leave the demand unmet.
    for (int round = 0; !host.fits(need_mb); ++round) {
        if (round >= 4)
            return false;
        // Nothing here can be reclaimed: every policy plans from this
        // worker's idle list alone, and the only memory held outside
        // containers is what a policy may shed inside planReclaim
        // (RainbowCake's layer caches).  With neither, every plan is
        // empty, so skip the scan.  The one trace a skipped scan leaves
        // out is CIP's: a bump of its scan counter, whose values are
        // only ever compared by order, and a rebuild of empty buckets,
        // which the next scan that finds idle containers redoes.
        if (worker_idle_[worker].empty() &&
            host.usedMb() == host.containerMb()) {
            return false;
        }
        const ReclaimRequest demand{worker, need_mb - host.freeMb(),
                                    beneficiary, exclude};
        ScratchLease plan_lease(plan_scratch_);
        ReclaimPlan &plan = *plan_lease;
        policy_.keep_alive->planReclaim(*this, demand, plan);

        // Validate and size the plan before touching anything; entries
        // matching the excluded container are dropped, not applied.
        std::int64_t reclaimable = 0;
        bool valid = true;
        ScratchLease compress_lease(compress_scratch_);
        ScratchLease evict_lease(evict_scratch_);
        std::vector<cluster::ContainerId> &to_compress = *compress_lease;
        std::vector<cluster::ContainerId> &to_evict = *evict_lease;
        for (const cluster::ContainerId cid : plan.compress) {
            if (cid == exclude)
                continue;
            const cluster::Container &victim = cluster_.container(cid);
            if (!victim.idle() || victim.worker != worker) {
                valid = false;
                break;
            }
            reclaimable += victim.full_memory_mb -
                std::max<std::int64_t>(
                    1, static_cast<std::int64_t>(
                           static_cast<double>(victim.full_memory_mb) /
                           config_.compression_ratio));
            to_compress.push_back(cid);
        }
        for (const cluster::ContainerId cid : plan.evict) {
            if (cid == exclude)
                continue;
            const cluster::Container &victim = cluster_.container(cid);
            if (!((victim.idle() || victim.compressed()) &&
                  victim.active == 0) ||
                victim.worker != worker) {
                valid = false;
                break;
            }
            reclaimable += victim.memory_mb;
            to_evict.push_back(cid);
        }
        if (!valid)
            throw std::logic_error(
                "Engine: keep-alive policy returned an invalid plan");
        // Recompute the demand: policies may free auxiliary memory
        // (e.g. RainbowCake layer caches) inside planReclaim.
        const std::int64_t still_needed = need_mb - host.freeMb();
        if (still_needed <= 0)
            break;
        if (reclaimable < still_needed)
            return false; // this worker cannot host it right now

        for (const cluster::ContainerId cid : to_compress) {
            cluster::Container &victim = cluster_.container(cid);
            // A compressed container stays cached and evictable but can
            // no longer serve requests directly.
            FunctionState &vfs = states_[victim.function];
            if (vfs.isAvailable(victim))
                vfs.removeAvailable(victim, cluster_.slab());
            cluster_.compressContainer(cid, config_.compression_ratio);
            ++metrics_.compressions;
            ++compressed_live_;
        }
        for (const cluster::ContainerId cid : to_evict) {
            watermark =
                std::max(watermark, cluster_.container(cid).priority);
            evictContainer(cid, /*expired=*/false);
        }
    }
    return host.fits(need_mb);
}

void
Engine::retryDeferred()
{
    if (in_retry_)
        return;
    in_retry_ = true;
    while (!deferred_.empty()) {
        const DeferredProvision &head = deferred_.front();
        // A deferred *speculative* provision whose channel has already
        // drained would create a container nobody asked for; cancel it
        // when the admission-control knob is on.
        if (config_.cancel_stale_speculation &&
            head.reason == cluster::ProvisionReason::Speculative &&
            states_[head.function].channel().empty()) {
            deferred_.pop_front();
            ++metrics_.cancelled_provisions;
            continue;
        }
        const bool bound = head.reason == cluster::ProvisionReason::Demand;
        if (!tryStartProvision(head,
                               bound ? &deferred_requests_.front() : nullptr))
            break; // FIFO: the head blocks until memory frees
        deferred_.pop_front();
        if (bound)
            deferred_requests_.pop_front();
    }
    in_retry_ = false;
}

cluster::Container *
Engine::findRestorableContainer(FunctionState &fs)
{
    // Only CodeCrunch-style policies ever compress; skip the per-miss
    // scan entirely for everyone else.
    if (compressed_live_ == 0)
        return nullptr;
    for (const cluster::ContainerId cid : fs.cached()) {
        cluster::Container &c = cluster_.container(cid);
        if (!c.compressed())
            continue;
        const std::int64_t grow = c.full_memory_mb - c.memory_mb;
        if (cluster_.worker(c.worker).fits(grow))
            return &c;
        // Try to reclaim colder state to make room for the inflation —
        // restoring at a fraction of the cold-start cost is worth an
        // eviction elsewhere.
        double watermark = 0.0;
        if (ensureFreeOn(c.worker, grow, watermark, c.id, c.function))
            return &c;
    }
    return nullptr;
}

void
Engine::startRestore(cluster::Container &c,
                     const cluster::PendingRequest &request)
{
    FunctionState &fs = states_[c.function];
    cluster_.decompressContainer(c.id); // -> Live, full footprint
    --compressed_live_;
    removeFromWorkerIdle(c);
    fs.removeCached(c, cluster_.slab());

    c.state = cluster::ContainerState::Provisioning;
    c.restoring = true;
    fs.noteProvisioning(true);

    const trace::FunctionProfile &profile = trace_.function(c.function);
    const sim::SimTime cost = std::max<sim::SimTime>(
        static_cast<sim::SimTime>(
            static_cast<double>(profile.cold_start_us) *
            cluster_.worker(c.worker).speedFactor() *
            config_.restore_cost_fraction),
        1);
    c.provision_ends_at = now() + cost;
    c.bound_queue.push_back(request);
    noteMemory();

    queue_.schedule(c.provision_ends_at, kEvProvisionComplete, c.id);
}

void
Engine::evictContainer(cluster::ContainerId id, bool expired)
{
    cluster::Container &c = cluster_.container(id);
    if (c.active > 0 || c.provisioning() || c.evicted())
        throw std::logic_error("Engine: evicting a non-idle container");
    if (c.compressed())
        --compressed_live_;
    FunctionState &fs = states_[c.function];

    if (fs.isAvailable(c))
        fs.removeAvailable(c, cluster_.slab());
    if (c.idle_slot >= 0)
        removeFromWorkerIdle(c);
    if (c.cached_slot >= 0)
        fs.removeCached(c, cluster_.slab());

    if (c.use_count == 0)
        ++metrics_.wasted_cold_starts;
    if (fs.tracked_spec_container == c.id)
        reportSpeculativeOutcome(fs, c, /*reused=*/false);

    policy_.keep_alive->onEvicted(*this, c);
    if (policy_.agent)
        policy_.agent->onContainerEvicted(*this, c);

    cluster_.destroyContainer(id);
    if (expired)
        ++metrics_.expirations;
    else
        ++metrics_.evictions;
    noteMemory();
}

void
Engine::reapContainer(cluster::ContainerId id, bool expired)
{
    evictContainer(id, expired);
    retryDeferred();
}

bool
Engine::prewarm(trace::FunctionId id)
{
    if (!tryStartProvision({id, cluster::ProvisionReason::Prewarm}, nullptr))
        return false;
    ++metrics_.prewarms;
    return true;
}

void
Engine::addToWorkerIdle(cluster::Container &c)
{
    assert(c.idle_slot < 0);
    auto &list = worker_idle_[c.worker];
    c.idle_slot = static_cast<std::int32_t>(list.size());
    list.push_back(c.id);
    ++worker_idle_epoch_[c.worker];
}

void
Engine::removeFromWorkerIdle(cluster::Container &c)
{
    auto &list = worker_idle_[c.worker];
    const std::int32_t slot = c.idle_slot;
    if (slot < 0 || static_cast<std::size_t>(slot) >= list.size() ||
        list[static_cast<std::size_t>(slot)] != c.id) {
        throw std::logic_error("Engine: corrupt worker idle list");
    }
    const auto idx = static_cast<std::size_t>(slot);
    list[idx] = list.back();
    cluster_.slab()[list[idx]].idle_slot = slot;
    list.pop_back();
    c.idle_slot = -1;
    ++worker_idle_epoch_[c.worker];
}

void
Engine::noteMemory()
{
    metrics_.noteMemoryUsage(now(), cluster_.totalUsedMb());
}

void
Engine::reportSpeculativeOutcome(FunctionState &fs, cluster::Container &c,
                                 bool reused)
{
    const sim::SimTime gap = now() - fs.tracked_spec_ready_at;
    fs.tracked_spec_container = cluster::kInvalidContainer;
    policy_.scaling->onSpeculativeOutcome(*this, c.function, gap, reused);
}

sim::SimTime
Engine::estimateExecTime(trace::FunctionId id) const
{
    const auto &window = states_.at(id).execWindow();
    if (window.empty())
        return trace_.function(id).median_exec_us;
    return static_cast<sim::SimTime>(
        config_.te_percentile < 0.0
            ? window.mean()
            : window.percentile(config_.te_percentile));
}

sim::SimTime
Engine::estimateColdTime(trace::FunctionId id) const
{
    const auto &window = states_.at(id).coldWindow();
    return window.empty() ? trace_.function(id).cold_start_us
                          : static_cast<sim::SimTime>(window.median());
}

sim::SimTime
Engine::nextArrivalAfter(trace::FunctionId id, sim::SimTime t) const
{
    const auto arrivals = trace_.arrivalsOf(id);
    const auto it = std::upper_bound(arrivals.begin(), arrivals.end(), t);
    return it == arrivals.end() ? sim::kTimeInfinity : *it;
}

void
Engine::saveState(sim::StateWriter &writer) const
{
    writer.put(ran_);
    writer.put(tick_scheduled_);
    writer.put(in_retry_);
    writer.put(live_);
    writer.put(stream_closed_);
    writer.put(live_next_seq_);
    writer.put(arrivals_);
    writer.put(completed_requests_);
    writer.put(round_robin_cursor_);
    writer.put(compressed_live_);

    std::uint64_t rng_state[4];
    rng_.saveState(rng_state);
    writer.putBytes(rng_state, sizeof rng_state);

    queue_.saveState(writer);
    cluster_.saveState(writer);

    writer.put<std::uint64_t>(worker_idle_.size());
    for (const auto &list : worker_idle_)
        writer.putVector(list);
    writer.putVector(worker_idle_epoch_);

    writer.put<std::uint64_t>(states_.size());
    for (const FunctionState &fs : states_)
        fs.saveState(writer);

    writer.put<std::uint64_t>(deferred_.size());
    auto bound = deferred_requests_.begin();
    for (const DeferredProvision &d : deferred_) {
        writer.put(d.function);
        writer.put(d.reason);
        if (d.reason == cluster::ProvisionReason::Demand)
            writer.put(*bound++);
    }

    metrics_.saveState(writer);
    policy_.scaling->saveState(writer);
    policy_.keep_alive->saveState(writer);
    writer.put<std::uint8_t>(policy_.agent ? 1 : 0);
    if (policy_.agent)
        policy_.agent->saveState(writer);
}

void
Engine::loadState(sim::StateReader &reader)
{
    if (ran_)
        throw std::logic_error(
            "Engine::loadState: restore requires a fresh engine");
    const auto corrupt = [](const std::string &what) {
        throw std::runtime_error("Engine: checkpoint does not fit: " + what);
    };

    ran_ = reader.get<bool>();
    tick_scheduled_ = reader.get<bool>();
    in_retry_ = reader.get<bool>();
    live_ = reader.get<bool>();
    stream_closed_ = reader.get<bool>();
    live_next_seq_ = reader.get<std::uint64_t>();
    arrivals_ = reader.get<std::uint64_t>();
    completed_requests_ = reader.get<std::uint64_t>();
    round_robin_cursor_ = reader.get<std::uint64_t>();
    compressed_live_ = reader.get<std::int64_t>();
    if (!ran_ || completed_requests_ > arrivals_ ||
        (!live_ && arrivals_ > trace_.requestCount()) ||
        (live_ && config_.record_per_request)) {
        corrupt("request counters");
    }

    std::uint64_t rng_state[4];
    reader.getBytes(rng_state, sizeof rng_state);
    rng_.loadState(rng_state);

    queue_.loadState(reader);
    cluster_.loadState(reader);
    const auto &slab = cluster_.allContainers();
    // A held request has arrived and completes within the horizon.
    const auto checkRecord = [&](const cluster::PendingRequest &r) {
        if (r.index >= arrivals_ || r.arrival_us > now() ||
            !withinHorizon(r.arrival_us, r.exec_us)) {
            corrupt("request record");
        }
    };

    // Check every pending event before any handler can read through it,
    // counting the completions each container owes.
    std::vector<std::uint32_t> executing(slab.size(), 0);
    std::uint64_t next_arrivals = 0;
    for (const sim::Event &e : queue_.pending()) {
        const auto exec = static_cast<sim::SimTime>(e.b);
        const bool on_container = e.a < slab.size();
        if (!(e.kind == kEvMaintenance ||
              (e.kind == kEvArrival && e.a < states_.size() &&
               withinHorizon(e.when, exec)) ||
              (e.kind == kEvExecComplete && on_container &&
               withinHorizon(0, exec)) ||
              (e.kind == kEvProvisionComplete && on_container &&
               slab[e.a].provisioning()))) {
            corrupt("pending event");
        }
        if (e.kind == kEvExecComplete)
            ++executing[e.a];
        next_arrivals += e.kind == kEvArrival;
    }
    // Each arrival schedules the next, so a trace run holds one until its
    // rows run out and then closes its stream; a live run holds none.
    const bool rows_left = !live_ && arrivals_ < trace_.requestCount();
    if (next_arrivals != rows_left || (!live_ && stream_closed_ == rows_left))
        corrupt("arrival stream");
    // Requests are conserved: each outstanding one is executing (a
    // pending completion) or held by a channel, a bound queue or a
    // deferred provision, and a holder can still serve what it holds.
    std::uint64_t held = 0;
    for (const cluster::Container &c : slab) {
        if (executing[c.id] != c.active ||
            (!c.evicted() && c.function >= states_.size()) ||
            (!c.bound_queue.empty() && !c.provisioning() && !c.busy())) {
            corrupt("container");
        }
        held += c.active + c.bound_queue.size();
        for (const cluster::PendingRequest &r : c.bound_queue)
            checkRecord(r);
    }

    if (reader.get<std::uint64_t>() != worker_idle_.size())
        corrupt("worker count");
    for (cluster::WorkerId w = 0; w < worker_idle_.size(); ++w) {
        std::vector<cluster::ContainerId> &list = worker_idle_[w];
        list = reader.getVector<cluster::ContainerId>();
        // Each entry must be an idle (or compressed) container of this
        // worker that knows its place in the list.  A slot equal to the
        // position also rules out an id listed twice.
        for (std::size_t slot = 0; slot < list.size(); ++slot) {
            const cluster::ContainerId id = list[slot];
            if (id >= slab.size() || slab[id].worker != w ||
                !(slab[id].idle() || slab[id].compressed()) ||
                slab[id].idle_slot != static_cast<std::int64_t>(slot)) {
                corrupt("worker idle list");
            }
        }
    }
    worker_idle_epoch_ = reader.getVector<std::uint64_t>();
    if (worker_idle_epoch_.size() != worker_idle_.size())
        corrupt("worker idle epochs");

    if (reader.get<std::uint64_t>() != states_.size())
        corrupt("function count");
    for (FunctionState &fs : states_) {
        fs.loadState(reader);
        held += fs.channel().size();
        for (const cluster::PendingRequest &r : fs.channel())
            checkRecord(r);
    }

    deferred_.clear();
    deferred_requests_.clear();
    const std::uint64_t deferred_count = reader.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < deferred_count; ++i) {
        DeferredProvision d;
        d.function = reader.get<trace::FunctionId>();
        d.reason = reader.get<cluster::ProvisionReason>();
        // Only two kinds are ever deferred: a Demand provision bound to
        // its request and an unbound Speculative one (prewarm() never
        // defers).
        const bool demand = d.reason == cluster::ProvisionReason::Demand;
        if (d.function >= states_.size() ||
            (!demand && d.reason != cluster::ProvisionReason::Speculative)) {
            corrupt("deferred provision");
        }
        if (demand) {
            checkRecord(deferred_requests_.emplace_back(
                reader.get<cluster::PendingRequest>()));
            ++held;
        }
        deferred_.push_back(d);
    }
    if (held != arrivals_ - completed_requests_)
        corrupt("requests not conserved");

    metrics_.loadState(reader);
    if (metrics_.outcomes.size() !=
        (config_.record_per_request ? trace_.requestCount() : 0)) {
        corrupt("per-request log");
    }
    policy_.scaling->loadState(reader);
    policy_.keep_alive->loadState(reader);
    if ((reader.get<std::uint8_t>() != 0) != (policy_.agent != nullptr))
        corrupt("agent presence");
    if (policy_.agent)
        policy_.agent->loadState(reader);
}

void
Engine::swapPolicy(OrchestrationPolicy policy)
{
    if (!policy.scaling || !policy.keep_alive)
        throw std::invalid_argument(
            "Engine::swapPolicy: policy bundle incomplete");
    if (policy.scaling->wantsBusyCompletionView() && !track_busy_ends_) {
        throw std::logic_error(
            "Engine::swapPolicy: the new scaling policy needs the "
            "busy-completion view, which the outgoing policy did not "
            "maintain (per-function busy-end history is unrecoverable)");
    }
    policy_ = std::move(policy);
    // A narrower view requirement is fine: the history keeps being
    // maintained (track_busy_ends_ stays as constructed) so a later
    // swap back would still be sound.
}

void
Engine::reseed(std::uint64_t seed)
{
    rng_ = sim::Rng(seed);
}

const std::vector<sim::SimTime> &
Engine::busyCompletionView(trace::FunctionId id) const
{
    if (!track_busy_ends_) {
        throw std::logic_error(
            "Engine::busyCompletionView: scaling policy did not opt in "
            "(override wantsBusyCompletionView)");
    }
    return states_.at(id).busyEndTimes();
}

} // namespace cidre::core

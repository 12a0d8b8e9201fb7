/**
 * @file
 * Out-of-program instrumentation for the repository benchmark.
 *
 * Nothing here changes the library: the benchmark measures each layer
 * from outside, by timing its own calls into the library and by wrapping
 * the three policy plug-in interfaces in decorators that forward every
 * virtual and charge the time spent inside to a per-cell ledger.  No
 * in-tree policy uses dynamic_cast, so a decorated bundle behaves
 * exactly like the bundle it wraps (the self-test pins this for every
 * registered policy).
 *
 * ArrivalClock is the one piece that is not a decorator: a ClusterAgent
 * that takes one clock reading per observed arrival, i.e. the instant
 * the engine starts handling a request.  Live streams that measure delay
 * attach it, traced or not, and so do the replays compared against them.
 */

#ifndef CIDRE_PERFBENCH_INSTRUMENT_H
#define CIDRE_PERFBENCH_INSTRUMENT_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/policy.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Monotonic host nanoseconds (CLOCK_MONOTONIC on Linux). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Calls through one hook boundary and the nanoseconds spent inside. */
struct HookCost
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;

    void charge(std::int64_t started_ns)
    {
        ++calls;
        ns += nowNs() - started_ns;
    }

    void add(const HookCost &other)
    {
        calls += other.calls;
        ns += other.ns;
    }
};

/** Everything the decorators of one cell's bundle measured. */
struct LayerLedger
{
    HookCost reclaim;         //!< KeepAlivePolicy::planReclaim
    std::uint64_t reclaim_sufficient = 0;
    HookCost keepalive_hooks; //!< onAdmit / onUse / onIdle / onEvicted
    HookCost expire;          //!< collectExpired (one call per tick)
    HookCost scaling;         //!< ScalingPolicy::onNoFreeContainer
    std::uint64_t speculative = 0;
    HookCost scaling_hooks;   //!< onSpeculativeOutcome / onDispatch
    std::uint64_t spec_outcomes = 0;
    std::uint64_t spec_reused = 0;
    HookCost agent_hooks;     //!< every ClusterAgent virtual

    /** Nanoseconds spent inside any decorated hook. */
    std::int64_t hookNs() const
    {
        return reclaim.ns + keepalive_hooks.ns + expire.ns + scaling.ns +
            scaling_hooks.ns + agent_hooks.ns;
    }

    /** Nanoseconds spent inside the scaling and keep-alive policies. */
    std::int64_t policyNs() const
    {
        return hookNs() - agent_hooks.ns;
    }

    void add(const LayerLedger &other)
    {
        reclaim.add(other.reclaim);
        reclaim_sufficient += other.reclaim_sufficient;
        keepalive_hooks.add(other.keepalive_hooks);
        expire.add(other.expire);
        scaling.add(other.scaling);
        speculative += other.speculative;
        scaling_hooks.add(other.scaling_hooks);
        spec_outcomes += other.spec_outcomes;
        spec_reused += other.spec_reused;
        agent_hooks.add(other.agent_hooks);
    }
};

/** Forwards every ScalingPolicy virtual, charging it to a ledger. */
class TimedScaling final : public cidre::core::ScalingPolicy
{
  public:
    TimedScaling(std::unique_ptr<cidre::core::ScalingPolicy> inner,
                 LayerLedger &ledger)
        : inner_(std::move(inner)), ledger_(ledger)
    {
    }

    const char *name() const override { return inner_->name(); }

    cidre::core::ScalingChoice
    onNoFreeContainer(cidre::core::Engine &engine,
                      const cidre::trace::Request &request) override
    {
        const std::int64_t t0 = nowNs();
        const cidre::core::ScalingChoice choice =
            inner_->onNoFreeContainer(engine, request);
        ledger_.scaling.charge(t0);
        if (choice.decision == cidre::core::ScalingDecision::Speculative)
            ++ledger_.speculative;
        return choice;
    }

    void onSpeculativeOutcome(cidre::core::Engine &engine,
                              cidre::trace::FunctionId function,
                              cidre::sim::SimTime idle_gap,
                              bool reused) override
    {
        const std::int64_t t0 = nowNs();
        inner_->onSpeculativeOutcome(engine, function, idle_gap, reused);
        ledger_.scaling_hooks.charge(t0);
        ++ledger_.spec_outcomes;
        if (reused)
            ++ledger_.spec_reused;
    }

    void onDispatch(cidre::core::Engine &engine,
                    const cidre::trace::Request &request,
                    cidre::core::StartType type,
                    cidre::sim::SimTime wait_us) override
    {
        const std::int64_t t0 = nowNs();
        inner_->onDispatch(engine, request, type, wait_us);
        ledger_.scaling_hooks.charge(t0);
    }

    bool wantsBusyCompletionView() const override
    {
        return inner_->wantsBusyCompletionView();
    }

    void saveState(cidre::sim::StateWriter &writer) const override
    {
        inner_->saveState(writer);
    }

    void loadState(cidre::sim::StateReader &reader) override
    {
        inner_->loadState(reader);
    }

  private:
    std::unique_ptr<cidre::core::ScalingPolicy> inner_;
    LayerLedger &ledger_;
};

/** Forwards every KeepAlivePolicy virtual, charging it to a ledger. */
class TimedKeepAlive final : public cidre::core::KeepAlivePolicy
{
  public:
    TimedKeepAlive(std::unique_ptr<cidre::core::KeepAlivePolicy> inner,
                   LayerLedger &ledger)
        : inner_(std::move(inner)), ledger_(ledger)
    {
    }

    const char *name() const override { return inner_->name(); }

    void onAdmit(cidre::core::Engine &engine,
                 cidre::cluster::Container &container,
                 double eviction_watermark) override
    {
        const std::int64_t t0 = nowNs();
        inner_->onAdmit(engine, container, eviction_watermark);
        ledger_.keepalive_hooks.charge(t0);
    }

    void onUse(cidre::core::Engine &engine,
               cidre::cluster::Container &container,
               cidre::core::StartType type) override
    {
        const std::int64_t t0 = nowNs();
        inner_->onUse(engine, container, type);
        ledger_.keepalive_hooks.charge(t0);
    }

    void onIdle(cidre::core::Engine &engine,
                cidre::cluster::Container &container) override
    {
        const std::int64_t t0 = nowNs();
        inner_->onIdle(engine, container);
        ledger_.keepalive_hooks.charge(t0);
    }

    void planReclaim(cidre::core::Engine &engine,
                     const cidre::core::ReclaimRequest &request,
                     cidre::core::ReclaimPlan &plan) override
    {
        const std::int64_t t0 = nowNs();
        inner_->planReclaim(engine, request, plan);
        ledger_.reclaim.charge(t0);
        // Size the plan the way the engine does before applying it; a
        // plan that cannot cover the demand is ranking work thrown away.
        std::int64_t freed = 0;
        for (const cidre::cluster::ContainerId id : plan.evict)
            if (id != request.exclude)
                freed += engine.clusterRef().container(id).memory_mb;
        for (const cidre::cluster::ContainerId id : plan.compress) {
            if (id == request.exclude)
                continue;
            const cidre::cluster::Container &c =
                engine.clusterRef().container(id);
            freed += c.full_memory_mb -
                std::max<std::int64_t>(
                    1, static_cast<std::int64_t>(
                           static_cast<double>(c.full_memory_mb) /
                           engine.config().compression_ratio));
        }
        if (freed >= request.need_mb)
            ++ledger_.reclaim_sufficient;
    }

    void onEvicted(cidre::core::Engine &engine,
                   const cidre::cluster::Container &container) override
    {
        const std::int64_t t0 = nowNs();
        inner_->onEvicted(engine, container);
        ledger_.keepalive_hooks.charge(t0);
    }

    void collectExpired(cidre::core::Engine &engine, cidre::sim::SimTime now,
                        std::vector<cidre::cluster::ContainerId> &out) override
    {
        const std::int64_t t0 = nowNs();
        inner_->collectExpired(engine, now, out);
        ledger_.expire.charge(t0);
    }

    void saveState(cidre::sim::StateWriter &writer) const override
    {
        inner_->saveState(writer);
    }

    void loadState(cidre::sim::StateReader &reader) override
    {
        inner_->loadState(reader);
    }

  private:
    std::unique_ptr<cidre::core::KeepAlivePolicy> inner_;
    LayerLedger &ledger_;
};

/** Forwards every ClusterAgent virtual, charging it to a ledger. */
class TimedAgent final : public cidre::core::ClusterAgent
{
  public:
    TimedAgent(std::unique_ptr<cidre::core::ClusterAgent> inner,
               LayerLedger &ledger)
        : inner_(std::move(inner)), ledger_(ledger)
    {
    }

    const char *name() const override { return inner_->name(); }

    void onTick(cidre::core::Engine &engine, cidre::sim::SimTime now) override
    {
        const std::int64_t t0 = nowNs();
        inner_->onTick(engine, now);
        ledger_.agent_hooks.charge(t0);
    }

    void onRequestObserved(cidre::core::Engine &engine,
                           const cidre::trace::Request &request) override
    {
        const std::int64_t t0 = nowNs();
        inner_->onRequestObserved(engine, request);
        ledger_.agent_hooks.charge(t0);
    }

    cidre::sim::SimTime
    provisionCost(cidre::core::Engine &engine,
                  const cidre::trace::FunctionProfile &function,
                  cidre::cluster::WorkerId worker,
                  cidre::sim::SimTime base_cost) override
    {
        const std::int64_t t0 = nowNs();
        const cidre::sim::SimTime cost =
            inner_->provisionCost(engine, function, worker, base_cost);
        ledger_.agent_hooks.charge(t0);
        return cost;
    }

    void onContainerEvicted(cidre::core::Engine &engine,
                            const cidre::cluster::Container &container) override
    {
        const std::int64_t t0 = nowNs();
        inner_->onContainerEvicted(engine, container);
        ledger_.agent_hooks.charge(t0);
    }

    void saveState(cidre::sim::StateWriter &writer) const override
    {
        inner_->saveState(writer);
    }

    void loadState(cidre::sim::StateReader &reader) override
    {
        inner_->loadState(reader);
    }

  private:
    std::unique_ptr<cidre::core::ClusterAgent> inner_;
    LayerLedger &ledger_;
};

/** Decorate every component of @p bundle (a null agent stays null). */
inline cidre::core::OrchestrationPolicy
decorate(cidre::core::OrchestrationPolicy bundle, LayerLedger &ledger)
{
    bundle.scaling =
        std::make_unique<TimedScaling>(std::move(bundle.scaling), ledger);
    bundle.keep_alive = std::make_unique<TimedKeepAlive>(
        std::move(bundle.keep_alive), ledger);
    if (bundle.agent)
        bundle.agent =
            std::make_unique<TimedAgent>(std::move(bundle.agent), ledger);
    return bundle;
}

/**
 * Records the host time at which the engine starts handling each
 * arrival: one clock reading per onRequestObserved, appended in arrival
 * order.  Observes only — every other virtual keeps its no-op default,
 * so attaching it never changes a result.
 */
class ArrivalClock final : public cidre::core::ClusterAgent
{
  public:
    explicit ArrivalClock(std::vector<std::int64_t> &stamps)
        : stamps_(stamps)
    {
    }

    const char *name() const override { return "arrival-clock"; }

    void onRequestObserved(cidre::core::Engine &,
                           const cidre::trace::Request &) override
    {
        stamps_.push_back(nowNs());
    }

  private:
    std::vector<std::int64_t> &stamps_;
};

} // namespace perfbench

#endif // CIDRE_PERFBENCH_INSTRUMENT_H

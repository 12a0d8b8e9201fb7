#include "policies/baselines/hybrid.h"

#include <algorithm>
#include <memory>

#include "core/engine.h"
#include "policies/scaling/vanilla.h"

#include "sim/serialize.h"

namespace cidre::policies {

// ------------------------------------------------------------- IatHistory

IatHistory::Entry &
IatHistory::entryFor(trace::FunctionId function) const
{
    if (entries_.size() <= function)
        entries_.resize(function + 1);
    return entries_[function];
}

void
IatHistory::observe(trace::FunctionId function, sim::SimTime arrival)
{
    Entry &entry = entryFor(function);
    if (entry.last_arrival >= 0) {
        const auto gap = static_cast<double>(arrival - entry.last_arrival);
        if (entry.gaps.size() < kCap) {
            entry.gaps.push_back(gap);
        } else {
            entry.gaps[entry.next_slot] = gap;
            entry.next_slot = (entry.next_slot + 1) % kCap;
        }
    }
    entry.last_arrival = arrival;
}

std::size_t
IatHistory::count(trace::FunctionId function) const
{
    return entryFor(function).gaps.size();
}

sim::SimTime
IatHistory::percentile(trace::FunctionId function, double q,
                       std::size_t min_history) const
{
    const Entry &entry = entryFor(function);
    if (entry.gaps.size() < min_history)
        return -1;
    std::vector<double> sorted = entry.gaps;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                     sorted.end());
    return static_cast<sim::SimTime>(sorted[rank]);
}

sim::SimTime
IatHistory::lastArrival(trace::FunctionId function) const
{
    return entryFor(function).last_arrival;
}

// --------------------------------------------------------- HybridKeepAlive

HybridKeepAlive::HybridKeepAlive(const HybridConfig &config,
                                 IatHistory &history)
    : RankedKeepAlive(Bonus::None), config_(config), history_(history)
{
}

double
HybridKeepAlive::key(core::Engine &, const cluster::Container &container)
{
    return lastUse(container);
}

void
HybridKeepAlive::collectExpired(core::Engine &engine, sim::SimTime now,
                                std::vector<cluster::ContainerId> &out)
{
    const auto &cl = engine.clusterRef();
    for (cluster::WorkerId w = 0; w < cl.workerCount(); ++w) {
        for (const cluster::ContainerId cid : engine.idleContainersOn(w)) {
            const cluster::Container &c = cl.container(cid);
            sim::SimTime keep = history_.percentile(
                c.function, config_.keep_percentile, config_.min_history);
            if (keep < 0)
                keep = config_.fallback_ttl;
            keep = std::min(keep, config_.max_keep);
            if (now - c.idle_since >= keep)
                out.push_back(cid);
        }
    }
}

// ------------------------------------------------------------- HybridAgent

HybridAgent::HybridAgent(const HybridConfig &config)
    : config_(config)
{
}

void
HybridAgent::onRequestObserved(core::Engine &, const trace::Request &req)
{
    history_.observe(req.function, req.arrival_us);
}

void
HybridAgent::onTick(core::Engine &engine, sim::SimTime now)
{
    // Pre-warm functions that went cold and whose pre-warm window (a low
    // IAT percentile after the last arrival) has opened, while the keep
    // window (a high percentile) has not yet passed.
    std::size_t budget = config_.prewarm_per_tick;
    const std::size_t n = engine.workload().functionCount();
    for (trace::FunctionId id = 0; id < n && budget > 0; ++id) {
        const auto &fs = engine.functionState(id);
        if (fs.cachedCount() > 0 || fs.provisioningCount() > 0)
            continue;
        const sim::SimTime last = history_.lastArrival(id);
        if (last < 0)
            continue;
        const sim::SimTime lead = history_.percentile(
            id, config_.prewarm_percentile, config_.min_history);
        if (lead < 0)
            continue; // histogram-less: fallback TTL path only
        // The pre-warm window is [p_low, p_high] after the last arrival:
        // beyond p_high the invocation is overdue and pre-warming would
        // likely waste a container.  (The keep cap applies to *reaping*,
        // not to this window.)
        const sim::SimTime until = history_.percentile(
            id, config_.keep_percentile, config_.min_history);
        if (now - last >= lead && now - last <= until) {
            if (engine.prewarm(id))
                --budget;
        }
    }
}

core::OrchestrationPolicy
makeHybridHistogram(const HybridConfig &config)
{
    auto agent = std::make_unique<HybridAgent>(config);
    auto keep_alive =
        std::make_unique<HybridKeepAlive>(config, agent->history());
    core::OrchestrationPolicy policy;
    policy.name = "hybrid";
    policy.scaling = std::make_unique<VanillaScaling>();
    policy.keep_alive = std::move(keep_alive);
    policy.agent = std::move(agent);
    return policy;
}

void
IatHistory::saveState(sim::StateWriter &writer) const
{
    writer.put<std::uint64_t>(entries_.size());
    for (const Entry &entry : entries_) {
        writer.put(entry.last_arrival);
        writer.putVector(entry.gaps);
        writer.put<std::uint64_t>(entry.next_slot);
    }
}

void
IatHistory::loadState(sim::StateReader &reader)
{
    const auto count = reader.get<std::uint64_t>();
    entries_.clear();
    entries_.resize(static_cast<std::size_t>(count));
    for (Entry &entry : entries_) {
        entry.last_arrival = reader.get<sim::SimTime>();
        entry.gaps = reader.getVector<double>();
        entry.next_slot =
            static_cast<std::size_t>(reader.get<std::uint64_t>());
    }
}

void
HybridAgent::saveState(sim::StateWriter &writer) const
{
    history_.saveState(writer);
}

void
HybridAgent::loadState(sim::StateReader &reader)
{
    history_.loadState(reader);
}

} // namespace cidre::policies

#include "policies/baselines/rainbowcake.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/engine.h"
#include "policies/scaling/vanilla.h"

#include "sim/serialize.h"

namespace cidre::policies {

namespace {

std::int64_t
fractionMb(std::int64_t total, double fraction)
{
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::llround(static_cast<double>(total) * fraction)));
}

} // namespace

// ---------------------------------------------------------------- LayerCache

LayerCache::LayerCache(const RainbowCakeConfig &config, std::size_t workers)
    : config_(config), workers_(workers)
{
}

void
LayerCache::releaseLayer(core::Engine &engine, cluster::WorkerId worker,
                         Layer &layer)
{
    if (layer.memory_mb > 0)
        engine.clusterRef().worker(worker).release(layer.memory_mb);
    layer.memory_mb = 0;
    layer.expires_at = 0;
}

void
LayerCache::demote(core::Engine &engine, const cluster::Container &container)
{
    WorkerLayers &wl = workers_.at(container.worker);
    const auto &fn = engine.workload().functions()[container.function];
    cluster::Worker &host = engine.clusterRef().worker(container.worker);
    const sim::SimTime now = engine.now();

    // Demotion is best effort: a layer is kept only if not already
    // cached and the memory fits.  The small shared layers (bare, lang)
    // demote whenever they fit; the bulky function-private user layer
    // additionally requires the worker to retain some slack, or layer
    // churn crowds out whole containers under hard pressure.
    const auto slack = static_cast<std::int64_t>(
        config_.demote_free_slack * static_cast<double>(host.capacityMb()));
    const auto fits_with_slack = [&](std::int64_t mb) {
        return host.freeMb() - mb >= slack;
    };
    const std::int64_t bare_mb = fractionMb(fn.memory_mb,
                                            config_.bare_fraction);
    if (wl.bare.memory_mb == 0 && host.fits(bare_mb)) {
        host.reserve(bare_mb);
        wl.bare = {bare_mb, now + config_.bare_ttl};
    } else if (wl.bare.memory_mb > 0) {
        wl.bare.expires_at = now + config_.bare_ttl;
    }

    const auto runtime_key = static_cast<std::uint8_t>(fn.runtime);
    const std::int64_t lang_mb = fractionMb(fn.memory_mb,
                                            config_.lang_fraction);
    auto lang_it = wl.lang.find(runtime_key);
    if (lang_it == wl.lang.end()) {
        if (host.fits(lang_mb)) {
            host.reserve(lang_mb);
            wl.lang.emplace(runtime_key,
                            Layer{lang_mb, now + config_.lang_ttl});
        }
    } else {
        lang_it->second.expires_at = now + config_.lang_ttl;
    }

    const std::int64_t user_mb =
        fractionMb(fn.memory_mb, config_.user_fraction);
    auto user_it = wl.user.find(container.function);
    if (user_it == wl.user.end()) {
        if (fits_with_slack(user_mb)) {
            host.reserve(user_mb);
            wl.user.emplace(container.function,
                            Layer{user_mb, now + config_.user_ttl});
        }
    } else {
        user_it->second.expires_at = now + config_.user_ttl;
    }
}

double
LayerCache::coverProvision(core::Engine &engine,
                           const trace::FunctionProfile &fn,
                           cluster::WorkerId worker, sim::SimTime now,
                           sim::SimTime base_cost_us)
{
    WorkerLayers &wl = workers_.at(worker);
    double multiplier = 1.0;

    if (wl.bare.memory_mb > 0) {
        // The bare OS layer is read-only shareable by any concurrency.
        multiplier -= config_.bare_fraction;
        wl.bare.expires_at = now + config_.bare_ttl;
    }
    const auto lang_it = wl.lang.find(static_cast<std::uint8_t>(fn.runtime));
    if (lang_it != wl.lang.end() && now >= lang_it->second.busy_until) {
        multiplier -= config_.lang_fraction;
        lang_it->second.expires_at = now + config_.lang_ttl;
        lang_it->second.busy_until = now + base_cost_us;
    }
    const auto user_it = wl.user.find(fn.id);
    if (user_it != wl.user.end()) {
        multiplier -= config_.user_fraction;
        // The user layer is absorbed into the new container.
        releaseLayer(engine, worker, user_it->second);
        wl.user.erase(user_it);
    }
    // The remainder is irreducible per-start work.
    const double floor =
        1.0 - config_.bare_fraction - config_.lang_fraction -
        config_.user_fraction;
    return std::max(multiplier, std::max(floor, 0.02));
}

void
LayerCache::expire(core::Engine &engine, sim::SimTime now)
{
    for (cluster::WorkerId w = 0; w < workers_.size(); ++w) {
        WorkerLayers &wl = workers_[w];
        if (wl.bare.memory_mb > 0 && wl.bare.expires_at <= now)
            releaseLayer(engine, w, wl.bare);
        for (auto it = wl.lang.begin(); it != wl.lang.end();) {
            if (it->second.expires_at <= now) {
                releaseLayer(engine, w, it->second);
                it = wl.lang.erase(it);
            } else {
                ++it;
            }
        }
        for (auto it = wl.user.begin(); it != wl.user.end();) {
            if (it->second.expires_at <= now) {
                releaseLayer(engine, w, it->second);
                it = wl.user.erase(it);
            } else {
                ++it;
            }
        }
    }
}

std::int64_t
LayerCache::shed(core::Engine &engine, cluster::WorkerId worker,
                 std::int64_t need_mb)
{
    WorkerLayers &wl = workers_.at(worker);
    std::int64_t freed = 0;

    // User layers first (cheapest to regain), then lang, then bare.
    for (auto it = wl.user.begin(); it != wl.user.end() && freed < need_mb;) {
        freed += it->second.memory_mb;
        releaseLayer(engine, worker, it->second);
        it = wl.user.erase(it);
    }
    for (auto it = wl.lang.begin(); it != wl.lang.end() && freed < need_mb;) {
        freed += it->second.memory_mb;
        releaseLayer(engine, worker, it->second);
        it = wl.lang.erase(it);
    }
    if (freed < need_mb && wl.bare.memory_mb > 0) {
        freed += wl.bare.memory_mb;
        releaseLayer(engine, worker, wl.bare);
    }
    return freed;
}

std::int64_t
LayerCache::layerMemoryMb(cluster::WorkerId worker) const
{
    const WorkerLayers &wl = workers_.at(worker);
    std::int64_t total = wl.bare.memory_mb;
    for (const auto &[key, layer] : wl.lang)
        total += layer.memory_mb;
    for (const auto &[key, layer] : wl.user)
        total += layer.memory_mb;
    return total;
}

// ----------------------------------------------------------------- the agent

RainbowCakeAgent::RainbowCakeAgent(const RainbowCakeConfig &config,
                                   std::size_t workers)
    : layers_(config, workers)
{
}

void
RainbowCakeAgent::onTick(core::Engine &engine, sim::SimTime now)
{
    layers_.expire(engine, now);
}

sim::SimTime
RainbowCakeAgent::provisionCost(core::Engine &engine,
                                const trace::FunctionProfile &function,
                                cluster::WorkerId worker,
                                sim::SimTime base_cost)
{
    const double multiplier = layers_.coverProvision(
        engine, function, worker, engine.now(), base_cost);
    return std::max<sim::SimTime>(
        1, static_cast<sim::SimTime>(
               std::llround(static_cast<double>(base_cost) * multiplier)));
}

void
RainbowCakeAgent::onContainerEvicted(core::Engine &engine,
                                     const cluster::Container &container)
{
    layers_.demote(engine, container);
}

// ------------------------------------------------------------- the keepalive

RainbowCakeKeepAlive::RainbowCakeKeepAlive(LayerCache &layers,
                                           const RainbowCakeConfig &config)
    : RankedKeepAlive(Bonus::None), layers_(layers), config_(config)
{
}

void
RainbowCakeKeepAlive::planReclaim(core::Engine &engine,
                                  const core::ReclaimRequest &request,
                                  core::ReclaimPlan &plan)
{
    // Shed cached layers first (side effect: memory is released right
    // away, the engine recomputes the residual demand), then fall back
    // to LRU whole-container eviction.
    const std::int64_t freed =
        layers_.shed(engine, request.worker, request.need_mb);
    if (freed >= request.need_mb)
        return;
    core::ReclaimRequest residual = request;
    residual.need_mb -= freed;
    RankedKeepAlive::planReclaim(engine, residual, plan);
}

void
RainbowCakeKeepAlive::collectExpired(core::Engine &engine, sim::SimTime now,
                                     std::vector<cluster::ContainerId> &out)
{
    // Whole containers expire quickly; their layers live on via demote().
    const auto &cl = engine.clusterRef();
    for (cluster::WorkerId w = 0; w < cl.workerCount(); ++w) {
        for (const cluster::ContainerId cid : engine.idleContainersOn(w)) {
            const cluster::Container &c = cl.container(cid);
            if (now - c.idle_since >= config_.container_ttl)
                out.push_back(cid);
        }
    }
}

double
RainbowCakeKeepAlive::key(core::Engine &, const cluster::Container &container)
{
    return lastUse(container);
}

// ------------------------------------------------------------------ assembly

core::OrchestrationPolicy
makeRainbowCake(const RainbowCakeConfig &config, std::size_t workers)
{
    auto agent = std::make_unique<RainbowCakeAgent>(config, workers);
    auto keep_alive =
        std::make_unique<RainbowCakeKeepAlive>(agent->layers(), config);
    core::OrchestrationPolicy policy;
    policy.name = "rainbowcake";
    policy.scaling = std::make_unique<VanillaScaling>();
    policy.keep_alive = std::move(keep_alive);
    policy.agent = std::move(agent);
    return policy;
}

void
LayerCache::saveState(sim::StateWriter &writer) const
{
    writer.put<std::uint64_t>(workers_.size());
    for (const WorkerLayers &wl : workers_) {
        writer.put(wl.bare);
        // Unordered maps iterate in a hash-dependent order; serialize
        // in sorted key order so checkpoint bytes are deterministic.
        std::vector<std::uint8_t> langs;
        langs.reserve(wl.lang.size());
        for (const auto &[key, layer] : wl.lang)
            langs.push_back(key);
        std::sort(langs.begin(), langs.end());
        writer.put<std::uint64_t>(langs.size());
        for (const std::uint8_t key : langs) {
            writer.put(key);
            writer.put(wl.lang.at(key));
        }
        std::vector<trace::FunctionId> fns;
        fns.reserve(wl.user.size());
        for (const auto &[key, layer] : wl.user)
            fns.push_back(key);
        std::sort(fns.begin(), fns.end());
        writer.put<std::uint64_t>(fns.size());
        for (const trace::FunctionId key : fns) {
            writer.put(key);
            writer.put(wl.user.at(key));
        }
    }
}

void
LayerCache::loadState(sim::StateReader &reader)
{
    const auto worker_count = reader.get<std::uint64_t>();
    if (worker_count != workers_.size())
        throw std::runtime_error(
            "LayerCache: checkpoint worker count mismatch");
    for (WorkerLayers &wl : workers_) {
        wl.bare = reader.get<Layer>();
        wl.lang.clear();
        const auto lang_count = reader.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < lang_count; ++i) {
            const auto key = reader.get<std::uint8_t>();
            wl.lang[key] = reader.get<Layer>();
        }
        wl.user.clear();
        const auto user_count = reader.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < user_count; ++i) {
            const auto key = reader.get<trace::FunctionId>();
            wl.user[key] = reader.get<Layer>();
        }
    }
}

void
RainbowCakeAgent::saveState(sim::StateWriter &writer) const
{
    layers_.saveState(writer);
}

void
RainbowCakeAgent::loadState(sim::StateReader &reader)
{
    layers_.loadState(reader);
}

} // namespace cidre::policies

#include "policies/keepalive/cip.h"

#include <algorithm>

#include "core/engine.h"

namespace cidre::policies {

void
CipKeepAlive::onAdmit(core::Engine &engine, cluster::Container &container,
                      double eviction_watermark)
{
    // §3.3: when the cache is not full new containers start at clock 0;
    // when admission required evictions, the container inherits the
    // maximum evicted priority, keeping clocks monotone.
    container.clock = eviction_watermark;
    container.priority =
        container.clock + CipKeepAlive::bonus(engine, container.function);
}

void
CipKeepAlive::onUse(core::Engine &engine, cluster::Container &container,
                    core::StartType type)
{
    // On any (delayed) warm start the clock is refreshed to the
    // container's priority *before* the update (§3.3) — the value the
    // last reclaim scan left, which the base rebuilds as the container
    // leaves its bucket — then the priority is recomputed with Eq. 3.
    RankedKeepAlive::onUse(engine, container, type);
    container.clock = container.priority;
    container.priority =
        container.clock + CipKeepAlive::bonus(engine, container.function);
}

double
CipKeepAlive::key(core::Engine & /*engine*/,
                  const cluster::Container &container)
{
    return container.clock;
}

double
CipKeepAlive::bonus(core::Engine &engine, trace::FunctionId function)
{
    if (bonus_cache_.size() <= function)
        bonus_cache_.resize(engine.workload().functionCount());
    const core::FunctionState &fs = engine.functionState(function);
    BonusCache &memo = bonus_cache_[function];
    const sim::SimTime now = engine.now();
    if (memo.when == now && memo.epoch == fs.priorityEpoch())
        return memo.bonus;

    const auto &profile = engine.workload().functions()[function];
    const double freq = fs.freqPerMinute(now);
    const auto cost = static_cast<double>(profile.cold_start_us);
    const auto size = static_cast<double>(
        std::max<std::int64_t>(profile.memory_mb, 1));
    const auto k =
        static_cast<double>(std::max<std::uint32_t>(fs.cachedCount(), 1));
    memo.when = now;
    memo.epoch = fs.priorityEpoch();
    memo.bonus = bonus_weight_ * (freq * cost / (size * k));
    return memo.bonus;
}

void
CipKeepAlive::loadState(sim::StateReader &reader)
{
    RankedKeepAlive::loadState(reader);
    bonus_cache_.clear(); // pure memo: recomputes to the same values
}

} // namespace cidre::policies

#include "policies/keepalive/gdsf.h"

#include <algorithm>

#include "core/engine.h"

#include "sim/serialize.h"

namespace cidre::policies {

GdsfKeepAlive::GdsfKeepAlive(bool concurrency_aware)
    : RankedKeepAlive(Bonus::PerFunction),
      concurrency_aware_(concurrency_aware)
{
}

std::uint64_t &
GdsfKeepAlive::freqOf(core::Engine &engine, trace::FunctionId id)
{
    if (freq_.size() < engine.workload().functionCount())
        freq_.resize(engine.workload().functionCount(), 0);
    return freq_[id];
}

void
GdsfKeepAlive::onAdmit(core::Engine &engine, cluster::Container &container,
                       double /*eviction_watermark*/)
{
    // GDSF inflates new entries with the cache-wide clock; the policy's
    // own monotone watermark subsumes the per-admission one.
    container.clock = watermark_;
    ++freqOf(engine, container.function);
    container.priority =
        container.clock + GdsfKeepAlive::bonus(engine, container.function);
}

void
GdsfKeepAlive::onUse(core::Engine &engine, cluster::Container &container,
                     core::StartType type)
{
    RankedKeepAlive::onUse(engine, container, type);
    // A use re-inflates the container exactly as an admission does.
    GdsfKeepAlive::onAdmit(engine, container, watermark_);
}

void
GdsfKeepAlive::onEvicted(core::Engine &engine,
                         const cluster::Container &container)
{
    // The base first: it rebuilds the priority the last scan gave the
    // container while idle, the value a reaped container folds in.
    RankedKeepAlive::onEvicted(engine, container);
    watermark_ = std::max(watermark_, container.priority);
    // Re-admission of a fully evicted function starts cold, as in a
    // classic cache: its frequency resets.
    const auto &fs = engine.functionState(container.function);
    if (fs.cachedCount() == 0 && fs.provisioningCount() == 0)
        freqOf(engine, container.function) = 0;
}

double
GdsfKeepAlive::key(core::Engine & /*engine*/,
                   const cluster::Container &container)
{
    return container.clock;
}

double
GdsfKeepAlive::bonus(core::Engine &engine, trace::FunctionId function)
{
    const auto &profile = engine.workload().functions()[function];
    const auto freq = static_cast<double>(freqOf(engine, function));
    const auto cost = static_cast<double>(profile.cold_start_us);
    const auto size = static_cast<double>(std::max<std::int64_t>(
        profile.memory_mb, 1));
    double denom = size;
    if (concurrency_aware_) {
        const auto k = std::max<std::uint32_t>(
            engine.functionState(function).cachedCount(), 1);
        denom *= static_cast<double>(k);
    }
    return freq * cost / denom;
}

void
GdsfKeepAlive::saveState(sim::StateWriter &writer) const
{
    RankedKeepAlive::saveState(writer);
    writer.put(watermark_);
    writer.putVector(freq_);
}

void
GdsfKeepAlive::loadState(sim::StateReader &reader)
{
    RankedKeepAlive::loadState(reader);
    watermark_ = reader.get<double>();
    freq_ = reader.getVector<std::uint64_t>();
}

} // namespace cidre::policies

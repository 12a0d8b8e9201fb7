#include "policies/baselines/flame.h"

#include <memory>

#include "core/engine.h"
#include "policies/scaling/vanilla.h"

namespace cidre::policies {

namespace {

/** Recent invocation rate (reqs/min) from the arrival window. */
double
recentRatePerMin(const core::FunctionState &fs)
{
    const auto &window = fs.arrivalWindow();
    if (window.count() < 2)
        return 0.0;
    const double span_min =
        sim::toMin(window.latestTime() - window.earliestTime());
    if (span_min <= 0.0)
        return 1e9; // a burst within one instant: certainly hot
    return static_cast<double>(window.count() - 1) / span_min;
}

} // namespace

FlameKeepAlive::FlameKeepAlive(const FlameConfig &config)
    : RankedKeepAlive(Bonus::PerFunction), config_(config)
{
}

bool
FlameKeepAlive::isHot(core::Engine &engine, trace::FunctionId function) const
{
    return recentRatePerMin(engine.functionState(function)) >=
        config_.hot_rate_per_min;
}

double
FlameKeepAlive::key(core::Engine &, const cluster::Container &container)
{
    return lastUse(container);
}

double
FlameKeepAlive::bonus(core::Engine &engine, trace::FunctionId function)
{
    // Cold-function containers occupy the bottom of the order (evicted
    // first), LRU within each class.
    return isHot(engine, function) ? 0x1p50 : 0.0;
}

void
FlameKeepAlive::collectExpired(core::Engine &engine, sim::SimTime now,
                               std::vector<cluster::ContainerId> &out)
{
    const auto &cl = engine.clusterRef();
    for (cluster::WorkerId w = 0; w < cl.workerCount(); ++w) {
        for (const cluster::ContainerId cid : engine.idleContainersOn(w)) {
            const cluster::Container &c = cl.container(cid);
            const sim::SimTime ttl = isHot(engine, c.function)
                ? config_.hot_ttl : config_.cold_ttl;
            if (now - c.idle_since >= ttl)
                out.push_back(cid);
        }
    }
}

core::OrchestrationPolicy
makeFlame(const FlameConfig &config)
{
    core::OrchestrationPolicy policy;
    policy.name = "flame";
    policy.scaling = std::make_unique<VanillaScaling>();
    policy.keep_alive = std::make_unique<FlameKeepAlive>(config);
    return policy;
}

} // namespace cidre::policies

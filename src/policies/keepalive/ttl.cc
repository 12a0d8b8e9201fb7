#include "policies/keepalive/ttl.h"

#include "core/engine.h"

namespace cidre::policies {

TtlKeepAlive::TtlKeepAlive(sim::SimTime ttl)
    : RankedKeepAlive(Bonus::None), ttl_(ttl)
{
}

void
TtlKeepAlive::collectExpired(core::Engine &engine, sim::SimTime now,
                             std::vector<cluster::ContainerId> &out)
{
    const auto &cl = engine.clusterRef();
    for (cluster::WorkerId w = 0; w < cl.workerCount(); ++w) {
        for (const cluster::ContainerId cid : engine.idleContainersOn(w)) {
            const cluster::Container &c = cl.container(cid);
            if (now - c.idle_since >= ttl_)
                out.push_back(cid);
        }
    }
}

double
TtlKeepAlive::key(core::Engine &, const cluster::Container &container)
{
    return static_cast<double>(container.idle_since);
}

} // namespace cidre::policies

#include "policies/baselines/codecrunch.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "policies/scaling/vanilla.h"

namespace cidre::policies {

CodeCrunchKeepAlive::CodeCrunchKeepAlive()
    : GdsfKeepAlive(false)
{
}

void
CodeCrunchKeepAlive::planReclaim(core::Engine &engine,
                                 const core::ReclaimRequest &request,
                                 core::ReclaimPlan &plan)
{
    beginScan(engine, request.worker);

    const double ratio = engine.config().compression_ratio;
    std::int64_t freed = 0;
    // First pass: compress live idle containers, evict compressed ones.
    popped_.clear();
    while (freed < request.need_mb) {
        const cluster::Container *c = popLowest(engine);
        if (c == nullptr)
            break;
        popped_.push_back(c);
        if (c->id == request.exclude)
            continue;
        if (c->compressed()) {
            plan.evict.push_back(c->id);
            freed += c->memory_mb;
        } else {
            plan.compress.push_back(c->id);
            freed += c->full_memory_mb - std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       static_cast<double>(c->full_memory_mb) / ratio));
        }
    }
    if (freed >= request.need_mb)
        return;

    // Compression alone cannot satisfy the demand, and the pass above
    // popped every idle container: evict from the lowest score upward
    // (compressed or not).
    plan.clear();
    freed = 0;
    for (const cluster::Container *c : popped_) {
        if (freed >= request.need_mb)
            break;
        if (c->id == request.exclude)
            continue;
        plan.evict.push_back(c->id);
        freed += c->memory_mb;
    }
    if (freed < request.need_mb)
        plan.evict.clear();
}

core::OrchestrationPolicy
makeCodeCrunch()
{
    core::OrchestrationPolicy policy;
    policy.name = "codecrunch";
    policy.scaling = std::make_unique<VanillaScaling>();
    policy.keep_alive = std::make_unique<CodeCrunchKeepAlive>();
    return policy;
}

} // namespace cidre::policies

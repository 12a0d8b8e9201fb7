#include "policies/keepalive/lru.h"

namespace cidre::policies {

double
LruKeepAlive::key(core::Engine &, const cluster::Container &container)
{
    // A never-used container ranks by creation time, so stale pre-warmed
    // containers are evicted before recently warm ones.
    return lastUse(container);
}

} // namespace cidre::policies

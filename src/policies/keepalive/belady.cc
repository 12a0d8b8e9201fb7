#include "policies/keepalive/belady.h"

#include "core/engine.h"

namespace cidre::policies {

double
BeladyKeepAlive::key(core::Engine & /*engine*/,
                     const cluster::Container & /*container*/)
{
    return 0.0;
}

double
BeladyKeepAlive::bonus(core::Engine &engine, trace::FunctionId function)
{
    const sim::SimTime next = engine.nextArrivalAfter(function, engine.now());
    // Furthest next use evicts first; since the ranked base evicts the
    // *lowest* score, negate.  Never-used-again functions get the most
    // negative score and are always the first victims.
    return next == sim::kTimeInfinity ? -1e300 : -static_cast<double>(next);
}

} // namespace cidre::policies

#include "policies/scaling/css.h"

#include "core/engine.h"

namespace cidre::policies {

core::ScalingChoice
CssScaling::onNoFreeContainer(core::Engine &engine,
                              const trace::Request &request)
{
    core::FunctionState &fs = engine.functionState(request.function);
    const auto t_e =
        static_cast<double>(engine.estimateExecTime(request.function));

    if (fs.bss_enabled) {
        if (fs.t_i_us > t_e) {
            // Algorithm 1 lines 2-4: the last speculative container idled
            // longer than an execution — a busy container would have
            // freed up in time, so the cold start was wasted.  Disable
            // the cold-start path.
            fs.bss_enabled = false;
            return {core::ScalingDecision::Wait,
                    cluster::kInvalidContainer};
        }
        // Lines 5-9: the BSS path.
        return {core::ScalingDecision::Speculative,
                cluster::kInvalidContainer};
    }

    const auto t_p =
        static_cast<double>(engine.estimateColdTime(request.function));
    // T_d is "the duration CIDRE waits to find an idle container since
    // the last request arrives": the head of the channel may still be
    // waiting right now, so fold its accrued wait in — without this the
    // re-enable check lags one full dispatch behind a deep backlog.
    double t_d = fs.t_d_us;
    if (!fs.channel().empty()) {
        t_d = std::max(t_d, static_cast<double>(
            engine.now() - fs.channel().front().arrival_us));
    }
    if (t_d > t_p) {
        // Lines 11-16: queuing has become more expensive than a cold
        // start — provision more capacity again.
        fs.bss_enabled = true;
        return {core::ScalingDecision::Speculative,
                cluster::kInvalidContainer};
    }
    // Lines 17-18: keep riding the delayed-warm-start path.
    return {core::ScalingDecision::Wait, cluster::kInvalidContainer};
}

void
CssScaling::onSpeculativeOutcome(core::Engine &engine,
                                 trace::FunctionId function,
                                 sim::SimTime idle_gap, bool /*reused*/)
{
    // T_i is simply the last speculative container's idle-before-reuse
    // gap; an eviction without reuse reports the whole unused lifetime,
    // which correctly reads as "very wasteful".
    engine.functionState(function).t_i_us = static_cast<double>(idle_gap);
}

void
CssScaling::onDispatch(core::Engine &engine, const trace::Request &request,
                       core::StartType type, sim::SimTime wait_us)
{
    if (type == core::StartType::DelayedWarm) {
        engine.functionState(request.function).t_d_us =
            static_cast<double>(wait_us);
    }
}

} // namespace cidre::policies

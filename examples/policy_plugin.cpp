/**
 * @file
 * Writing a custom orchestration policy against the public API.
 *
 * Implements two small policies from scratch and races them against
 * CIDRE and FaasCache:
 *
 *  - CostGreedyKeepAlive: evict the idle container whose re-creation is
 *    cheapest *per megabyte* (a pure cost/size heuristic, no clocks);
 *  - ThresholdScaling: wait for a busy container only when the
 *    function's recent median execution time is below a fixed fraction
 *    of its cold-start latency — a simpler (prediction-based) cousin of
 *    CIDRE's speculative scaling, with none of its safety nets.
 *
 * This is the extension surface a downstream user would implement:
 * derive from the interfaces in core/policy.h, bundle, run.
 */

#include <iostream>
#include <memory>

#include "core/engine.h"
#include "policies/keepalive/ranked.h"
#include "policies/registry.h"
#include "stats/table.h"
#include "trace/generators.h"

namespace {

using namespace cidre;

/**
 * Evict idle containers with the cheapest rebuild cost per MB first.
 * A ranked policy scores an idle container as key + bonus: the key is
 * fixed while the container sits idle, the bonus is per function and
 * read once per reclaim scan.  Cost per MB is a property of the
 * function, so it is all bonus.
 */
class CostGreedyKeepAlive : public policies::RankedKeepAlive
{
  public:
    CostGreedyKeepAlive() : RankedKeepAlive(Bonus::PerFunction) {}

    const char *name() const override { return "cost-greedy"; }

  protected:
    double key(core::Engine &, const cluster::Container &) override
    {
        return 0.0;
    }

    double bonus(core::Engine &engine, trace::FunctionId function) override
    {
        const auto &fn = engine.workload().functions()[function];
        return static_cast<double>(fn.cold_start_us) /
            static_cast<double>(std::max<std::int64_t>(fn.memory_mb, 1));
    }
};

/** Wait for busy containers only when executions look short. */
class ThresholdScaling : public core::ScalingPolicy
{
  public:
    explicit ThresholdScaling(double fraction) : fraction_(fraction) {}

    const char *name() const override { return "threshold"; }

    core::ScalingChoice
    onNoFreeContainer(core::Engine &engine,
                      const trace::Request &request) override
    {
        const auto exec = engine.estimateExecTime(request.function);
        const auto cold = engine.estimateColdTime(request.function);
        if (static_cast<double>(exec) <
            fraction_ * static_cast<double>(cold)) {
            return {core::ScalingDecision::Wait,
                    cluster::kInvalidContainer};
        }
        return {core::ScalingDecision::ColdStartBound,
                cluster::kInvalidContainer};
    }

  private:
    double fraction_;
};

core::RunMetrics
run(const trace::Trace &workload, core::OrchestrationPolicy policy)
{
    core::EngineConfig config;
    config.cluster.workers = 3;
    config.cluster.total_memory_mb = 48 * 1024;
    core::Engine engine(workload, config, std::move(policy));
    return engine.run();
}

} // namespace

int
main()
{
    const trace::Trace workload = trace::makeAzureLikeTrace(11, 0.25);
    std::cout << "Racing a custom policy against the built-ins on "
              << workload.requestCount() << " requests...\n\n";

    stats::Table table({"policy", "overhead %", "cold %", "delayed %",
                        "warm %"});
    auto report = [&](const char *label, const core::RunMetrics &m) {
        table.addRow(label,
                     {m.avgOverheadRatioPct(), m.coldRatio() * 100.0,
                      m.delayedRatio() * 100.0, m.warmRatio() * 100.0},
                     1);
    };

    // The custom bundle: threshold scaling + cost-greedy eviction.
    core::OrchestrationPolicy custom;
    custom.name = "custom";
    custom.scaling = std::make_unique<ThresholdScaling>(0.5);
    custom.keep_alive = std::make_unique<CostGreedyKeepAlive>();
    report("custom (threshold+cost-greedy)",
           run(workload, std::move(custom)));

    core::EngineConfig config;
    config.cluster.workers = 3;
    config.cluster.total_memory_mb = 48 * 1024;
    report("cidre", run(workload, policies::makePolicy("cidre", config)));
    report("faascache",
           run(workload, policies::makePolicy("faascache", config)));

    table.print(std::cout);
    std::cout << "\nThe custom policy's Wait path has no speculative"
                 " fallback, so it trades cold starts for queuing risk;"
                 " CIDRE's CSS makes that call adaptively.\n";
    return 0;
}

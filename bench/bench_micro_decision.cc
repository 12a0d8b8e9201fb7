/**
 * @file
 * Microbenchmarks (google-benchmark): per-decision costs of the CIDRE
 * data path — the §3.4 claim is that Algorithm 1 is O(1) and costs
 * ~36 µs in OpenLambda (Go, with locking); the pure decision logic here
 * should be far below that.
 *
 *  - CSS scaling decision (Algorithm 1, incl. T_e window percentile);
 *  - CIP priority computation (Eq. 3);
 *  - a full engine event loop over a small workload (events/sec).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "core/engine.h"
#include "policies/keepalive/cip.h"
#include "policies/registry.h"
#include "sim/rng.h"
#include "stats/sliding_window.h"
#include "trace/generators.h"

namespace {

using namespace cidre;

trace::Trace
smallWorkload()
{
    trace::SyntheticSpec spec = trace::azureLikeSpec();
    spec.functions = 50;
    spec.duration = sim::minutes(2);
    spec.total_rps = 100.0;
    return trace::generate(spec, 7);
}

/** Cost of one CSS decision, measured through a live engine. */
void
BM_CssDecision(benchmark::State &state)
{
    static const trace::Trace workload = smallWorkload();
    core::EngineConfig config;
    config.cluster.workers = 3;
    config.cluster.total_memory_mb = 8 * 1024;
    core::Engine engine(workload, config,
                        policies::makePolicy("cidre", config));

    // Drive the engine so function state (windows, containers) is warm.
    // We benchmark the decision components the engine exposes: the T_e /
    // T_p estimates dominate Algorithm 1's cost.
    engine.run();
    trace::FunctionId hot = 0;
    std::uint64_t best = 0;
    const auto counts = workload.requestCountByFunction();
    for (trace::FunctionId id = 0; id < counts.size(); ++id) {
        if (counts[id] > best) {
            best = counts[id];
            hot = id;
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.estimateExecTime(hot));
        benchmark::DoNotOptimize(engine.estimateColdTime(hot));
    }
}
BENCHMARK(BM_CssDecision);

/** Cost of one CIP priority computation (Eq. 3). */
void
BM_CipPriority(benchmark::State &state)
{
    static const trace::Trace workload = smallWorkload();
    core::EngineConfig config;
    config.cluster.workers = 3;
    config.cluster.total_memory_mb = 8 * 1024;
    core::Engine engine(workload, config,
                        policies::makePolicy("cidre", config));
    engine.run();

    policies::CipKeepAlive cip;
    // Find a cached container to score.
    cluster::ContainerId target = cluster::kInvalidContainer;
    for (const auto &c : engine.clusterRef().allContainers()) {
        if (c.live()) {
            target = c.id;
            break;
        }
    }
    if (target == cluster::kInvalidContainer) {
        state.SkipWithError("no live container after the run");
        return;
    }
    cluster::Container &container = engine.clusterRef().container(target);
    for (auto _ : state) {
        cip.onUse(engine, container, core::StartType::Warm);
        benchmark::DoNotOptimize(container.priority);
    }
}
BENCHMARK(BM_CipPriority);

/** Sliding-window percentile (the T_e estimate's kernel). */
void
BM_WindowPercentile(benchmark::State &state)
{
    stats::SlidingWindow window(sim::minutes(15),
                                static_cast<std::size_t>(state.range(0)));
    sim::Rng rng(1);
    for (int i = 0; i < state.range(0); ++i)
        window.add(sim::msec(i), rng.uniform(1.0, 1000.0));
    double q = 0.5;
    for (auto _ : state) {
        // Alternate quantiles: the sorted-companion design answers any
        // quantile in O(1), so both should cost the same few ns.
        q = q == 0.5 ? 0.9 : 0.5;
        benchmark::DoNotOptimize(window.percentile(q));
    }
}
BENCHMARK(BM_WindowPercentile)->Arg(64)->Arg(512);

/**
 * Sliding-window add at capacity on a ranked window: the retention cap
 * drops the oldest sample and the sorted companion takes the new one.
 * The companion is built on the first percentile(), so the window is
 * ranked once before timing.  4096 is the cap bench_fig18_window uses.
 */
void
BM_WindowAdd(benchmark::State &state)
{
    stats::SlidingWindow window(sim::minutes(15),
                                static_cast<std::size_t>(state.range(0)));
    sim::Rng rng(1);
    sim::SimTime now = 0;
    for (int i = 0; i < state.range(0); ++i) {
        now += sim::msec(1);
        window.add(now, rng.uniform(1.0, 1000.0));
    }
    benchmark::DoNotOptimize(window.median());
    for (auto _ : state) {
        now += sim::msec(1);
        window.add(now, rng.uniform(1.0, 1000.0));
        benchmark::DoNotOptimize(window.latest());
    }
}
BENCHMARK(BM_WindowAdd)->Arg(64)->Arg(512)->Arg(4096);

/**
 * One reclaim ranking on a warm cache through RankedKeepAlive's
 * bucket-head k-way merge, under CIP (Eq. 3) and GDSF (Eq. 1).  The
 * plan is ranked but never applied, so every iteration sees the same
 * idle population.
 */
void
BM_CipReclaimRanking(benchmark::State &state, const char *policy)
{
    static const trace::Trace workload = smallWorkload();
    core::EngineConfig config;
    config.cluster.workers = 1;
    config.cluster.total_memory_mb = 16 * 1024;
    core::Engine engine(workload, config,
                        policies::makePolicy("cidre", config));
    // Stop mid-run so the worker holds a live idle population.
    engine.begin();
    engine.stepUntil(sim::minutes(1));

    const std::unique_ptr<core::KeepAlivePolicy> ranking =
        policies::makePolicy(policy, config).keep_alive;
    const core::ReclaimRequest demand{0, state.range(0), 0,
                                      cluster::kInvalidContainer};
    core::ReclaimPlan plan;
    ranking->planReclaim(engine, demand, plan); // warm-up: builds buckets
    for (auto _ : state) {
        plan.clear();
        ranking->planReclaim(engine, demand, plan);
        benchmark::DoNotOptimize(plan.evict.size());
    }
}
BENCHMARK_CAPTURE(BM_CipReclaimRanking, cidre, "cidre")
    ->Arg(256)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_CipReclaimRanking, faascache, "faascache")
    ->Arg(256)
    ->Arg(1024);

/**
 * Whole-engine cost per simulated event, per policy: the end-to-end
 * "decision latency" including dispatch, windows, and reclaim.  The
 * events/s counter is the figure BENCH_core.json gates in CI.
 */
void
BM_PolicyEventCost(benchmark::State &state, const char *policy)
{
    static const trace::Trace workload = smallWorkload();
    std::uint64_t events = 0;
    for (auto _ : state) {
        core::EngineConfig config;
        config.cluster.workers = 3;
        config.cluster.total_memory_mb = 8 * 1024;
        core::Engine engine(workload, config,
                            policies::makePolicy(policy, config));
        const core::RunMetrics m = engine.run();
        events += engine.eventsExecuted();
        benchmark::DoNotOptimize(m.total());
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_PolicyEventCost, ttl, "ttl")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, faascache, "faascache")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, faascache_c, "faascache-c")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, codecrunch, "codecrunch")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, offline, "offline")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, flame, "flame")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicyEventCost, cidre, "cidre")
    ->Unit(benchmark::kMillisecond);

/** Whole-engine event throughput over a small workload. */
void
BM_EngineEventLoop(benchmark::State &state)
{
    static const trace::Trace workload = smallWorkload();
    std::uint64_t requests = 0;
    for (auto _ : state) {
        core::EngineConfig config;
        config.cluster.workers = 3;
        config.cluster.total_memory_mb = 8 * 1024;
        core::Engine engine(workload, config,
                            policies::makePolicy("cidre", config));
        const core::RunMetrics m = engine.run();
        requests += m.total();
        benchmark::DoNotOptimize(m.total());
    }
    state.counters["requests/s"] = benchmark::Counter(
        static_cast<double>(requests), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineEventLoop)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Proves the CIDRE decision path allocation-free in steady state: once
 * the engine, windows, and policy state have grown to their high-water
 * marks, stepping the simulation — arrivals, dispatches, completions,
 * window updates, estimates, maintenance ticks — performs no heap
 * allocation, and neither does the reclaim ranking (RankedKeepAlive's
 * bucket merge, under CIP, GDSF and Belady).
 * A live run admits its requests with no allocation either: nothing of
 * a request outlives its completion.
 *
 * Lives in the test_sim_alloc binary because the counting allocator in
 * alloc_counter.cc is program-wide.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "policies/registry.h"
#include "tests/core/test_helpers.h"
#include "tests/sim/alloc_counter.h"

namespace cidre::core {
namespace {

using cidre::test::addFunction;
using cidre::test::allocationCount;
using sim::msec;
using sim::sec;

/**
 * A strictly periodic workload: 8 functions fire every 40 ms for the
 * whole horizon, each execution 20 ms.  After one cold-start round the
 * cluster reaches a fixed point — one warm container per function,
 * every dispatch a warm start — so everything past the warm-up phase
 * exercises only the steady-state decision path.
 */
trace::Trace
periodicTrace(sim::SimTime horizon)
{
    trace::Trace t;
    std::vector<trace::FunctionId> fns;
    for (int f = 0; f < 8; ++f)
        fns.push_back(addFunction(t, 128, msec(50), msec(20)));
    for (sim::SimTime at = 0; at < horizon; at += msec(40)) {
        for (const trace::FunctionId fn : fns)
            t.addRequest(fn, at, msec(20));
    }
    t.seal();
    return t;
}

EngineConfig
steadyConfig()
{
    EngineConfig config;
    config.cluster.workers = 1;
    config.cluster.total_memory_mb = 10 * 1024;
    return config;
}

TEST(EngineAlloc, SteadyStateStepLoopIsAllocationFree)
{
    const trace::Trace workload = periodicTrace(sec(120));
    const EngineConfig config = steadyConfig();
    Engine engine(workload, config, policies::makePolicy("cidre", config));

    // Warm-up: cold starts, pool growth, window fill to max_samples,
    // policy state sizing.  30 simulated seconds cover hundreds of
    // window-capacity cycles.
    engine.begin();
    engine.stepUntil(sec(30));

    const std::uint64_t before = allocationCount();
    std::size_t events = 0;
    for (sim::SimTime t = sec(35); t <= sec(115); t += sec(5))
        events += engine.stepUntil(t);
    const std::uint64_t after = allocationCount();

    EXPECT_EQ(after - before, 0u)
        << "engine steady-state stepping must not allocate";
    EXPECT_GT(events, 10000u); // the phase really replayed traffic
    const RunMetrics m = engine.finish();
    EXPECT_EQ(m.total(), workload.requestCount());
}

TEST(EngineAlloc, SteadyStateLiveAdmissionIsAllocationFree)
{
    const trace::Trace workload = periodicTrace(sec(120));
    const trace::TraceView view(workload);
    const EngineConfig config = steadyConfig();
    Engine engine(workload, config, policies::makePolicy("cidre", config));
    engine.beginLive();

    // Warm-up as above: the first 30 simulated seconds of admissions.
    std::uint64_t next = 0;
    const auto admitUntil = [&](sim::SimTime until) {
        for (; next < view.requestCount() && view.arrivalUs(next) < until;
             ++next) {
            engine.admit(view.arrivalUs(next), view.requestFunction(next),
                         view.execUs(next));
        }
    };
    admitUntil(sec(30));

    const std::uint64_t before = allocationCount();
    const std::uint64_t first = next;
    admitUntil(sec(115));
    const std::uint64_t after = allocationCount();

    EXPECT_EQ(after - before, 0u)
        << "steady-state admissions must not allocate";
    EXPECT_GT(next - first, 10000u); // the phase really admitted traffic
    admitUntil(sec(120));
    engine.closeStream();
    EXPECT_EQ(engine.finish().total(), workload.requestCount());
}

TEST(EngineAlloc, ReclaimRankingAndEstimatesAllocationFree)
{
    const trace::Trace workload = periodicTrace(sec(60));
    const EngineConfig config = steadyConfig();
    Engine engine(workload, config, policies::makePolicy("cidre", config));

    engine.begin();
    // Stop mid-gap (arrivals at k*40 ms, executions end at +20 ms): all
    // eight containers sit idle, so the ranking sees the full cache.
    engine.stepUntil(sec(30) + msec(25));

    // Each ranked bonus family through the one base: CIP (Eq. 3),
    // GDSF (Eq. 1) and Belady (a next-arrival lookup per function).
    for (const char *name : {"cidre", "faascache", "offline"}) {
        SCOPED_TRACE(name);
        // A fresh instance never saw the engine's hook stream: its first
        // planReclaim rebuilds from the engine idle list (and allocates
        // its buckets); every later call must reuse that state.  The
        // plan is only ranked, never applied, so the engine stays
        // consistent.
        const std::unique_ptr<KeepAlivePolicy> keep_alive =
            policies::makePolicy(name, config).keep_alive;
        const ReclaimRequest demand{0, 300, 0, cluster::kInvalidContainer};
        ReclaimPlan plan;
        keep_alive->planReclaim(engine, demand, plan);
        ASSERT_GE(plan.evict.size(), 3u); // 3 × 128 MB covers 300 MB

        const std::uint64_t before = allocationCount();
        std::size_t ranked = 0;
        sim::SimTime estimates = 0;
        for (int round = 0; round < 1000; ++round) {
            plan.clear();
            keep_alive->planReclaim(engine, demand, plan);
            ranked += plan.evict.size();
            for (trace::FunctionId f = 0; f < workload.functionCount();
                 ++f) {
                estimates += engine.estimateExecTime(f);
                estimates += engine.estimateColdTime(f);
            }
        }
        const std::uint64_t after = allocationCount();

        EXPECT_EQ(after - before, 0u)
            << "reclaim ranking and estimate queries must not allocate";
        EXPECT_EQ(ranked, 3000u);
        EXPECT_GT(estimates, 0);
    }
}

} // namespace
} // namespace cidre::core

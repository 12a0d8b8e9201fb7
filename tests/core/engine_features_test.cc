/**
 * @file
 * Tests of engine features beyond the core dispatch loop: SLO
 * accounting, placement policies, speculation modes, and heterogeneous
 * workers.
 */

#include <gtest/gtest.h>

#include <memory>

#include "policies/keepalive/lru.h"
#include "policies/scaling/bss.h"
#include "policies/scaling/vanilla.h"
#include "tests/core/test_helpers.h"
#include "trace/generators.h"

namespace cidre::core {
namespace {

using cidre::test::addFunction;
using cidre::test::bundleOf;
using cidre::test::simpleBundle;
using cidre::test::smallConfig;
using sim::msec;
using sim::sec;

TEST(EngineSlo, CountsViolations)
{
    trace::Trace t;
    const auto fn = addFunction(t, 256, msec(100));
    t.addRequest(fn, 0, msec(50));          // cold: waits 100 ms
    t.addRequest(fn, msec(500), msec(50));  // warm: waits 0
    t.seal();

    EngineConfig config = smallConfig();
    config.slo_us = msec(50);
    Engine engine(t, std::move(config), simpleBundle());
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.slo_violations, 1u);
}

TEST(EngineSlo, DisabledByDefault)
{
    trace::Trace t;
    const auto fn = addFunction(t, 256, msec(100));
    t.addRequest(fn, 0, msec(50));
    t.seal();
    Engine engine(t, smallConfig(), simpleBundle());
    EXPECT_EQ(engine.run().slo_violations, 0u);
}

TEST(EnginePlacement, RoundRobinSpreadsContainers)
{
    trace::Trace t;
    const auto fn = addFunction(t, 100, msec(100));
    for (int i = 0; i < 6; ++i)
        t.addRequest(fn, msec(i), msec(500)); // 6 concurrent colds
    t.seal();

    EngineConfig config = smallConfig(30 * 1024, 3);
    config.placement = PlacementPolicy::RoundRobin;
    Engine engine(t, std::move(config), simpleBundle());
    engine.run();

    std::vector<int> per_worker(3, 0);
    for (const auto &c : engine.clusterRef().allContainers())
        ++per_worker[c.worker];
    EXPECT_EQ(per_worker, (std::vector<int>{2, 2, 2}));
}

TEST(EnginePlacement, FastestFirstPrefersQuickWorkers)
{
    trace::Trace t;
    const auto fn = addFunction(t, 100, msec(1000));
    t.addRequest(fn, 0, msec(10));
    t.seal();

    EngineConfig config = smallConfig(30 * 1024, 3);
    config.cluster.speed_factors = {2.0, 0.5, 1.0};
    config.placement = PlacementPolicy::FastestFirst;
    config.record_per_request = true;
    Engine engine(t, std::move(config), simpleBundle());
    const RunMetrics m = engine.run();

    // Placed on worker 1 (speed 0.5): the cold start halves to 500 ms.
    EXPECT_EQ(engine.clusterRef().allContainers()[0].worker, 1u);
    EXPECT_EQ(m.outcomes[0].wait_us, msec(500));
}

TEST(EngineHeterogeneity, SpeedFactorScalesColdStart)
{
    trace::Trace t;
    const auto fn = addFunction(t, 100, msec(400));
    t.addRequest(fn, 0, msec(10));
    t.seal();

    EngineConfig config = smallConfig(10 * 1024, 1);
    config.cluster.speed_factors = {1.5};
    config.record_per_request = true;
    Engine engine(t, std::move(config), simpleBundle());
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.outcomes[0].wait_us, msec(600));
}

TEST(EngineSpeculation, PerHeadSerializesProvisioning)
{
    // Three simultaneous requests with long executions and no warm
    // containers.  Per-request speculation provisions all three at
    // arrival (everyone colds after ~1 s).  Per-head speculation
    // provisions only for the current head, so provisioning serializes:
    // the last request starts only after ~3 s.
    trace::Trace t;
    const auto fn = addFunction(t, 256, sec(1), sec(10));
    for (int i = 0; i < 3; ++i)
        t.addRequest(fn, 0, sec(10));
    t.seal();

    auto run_with = [&](SpeculationMode mode) {
        EngineConfig config = smallConfig();
        config.speculation_mode = mode;
        Engine engine(t, std::move(config),
                      bundleOf(std::make_unique<policies::BssScaling>(),
                               std::make_unique<policies::LruKeepAlive>()));
        return engine.run();
    };
    const RunMetrics per_request = run_with(SpeculationMode::PerRequest);
    const RunMetrics per_head = run_with(SpeculationMode::PerHead);

    EXPECT_EQ(per_request.containers_created, 3u);
    EXPECT_EQ(per_head.containers_created, 3u);
    EXPECT_EQ(per_request.outcomes[2].wait_us, sec(1));
    EXPECT_EQ(per_head.outcomes[2].wait_us, sec(3));
}

TEST(EngineSpeculation, CancellationDropsStaleDeferred)
{
    // Memory fits one container; a 3-deep burst defers two speculative
    // provisions.  With cancellation the drained channel voids them.
    trace::Trace t2;
    const auto f2 = addFunction(t2, 800, msec(100));
    for (int i = 0; i < 3; ++i)
        t2.addRequest(f2, msec(i), msec(20));
    t2.seal();

    auto run_with = [&](bool cancel) {
        EngineConfig config = smallConfig(1000, 1);
        config.cancel_stale_speculation = cancel;
        Engine engine(t2, std::move(config),
                      bundleOf(std::make_unique<policies::BssScaling>(),
                               std::make_unique<policies::LruKeepAlive>()));
        return engine.run();
    };
    const RunMetrics keep = run_with(false);
    const RunMetrics cancel = run_with(true);
    EXPECT_GT(cancel.cancelled_provisions, 0u);
    EXPECT_EQ(keep.cancelled_provisions, 0u);
    EXPECT_GE(keep.containers_created, cancel.containers_created);
}

} // namespace
} // namespace cidre::core

/**
 * @file
 * Tests for the five re-implemented SOTA baselines.
 */

#include <gtest/gtest.h>

#include <memory>

#include "policies/baselines/codecrunch.h"
#include "policies/baselines/ensure.h"
#include "policies/baselines/flame.h"
#include "policies/baselines/icebreaker.h"
#include "policies/baselines/rainbowcake.h"
#include "tests/core/test_helpers.h"

namespace cidre::policies {
namespace {

using cidre::test::addFunction;
using cidre::test::smallConfig;
using core::Engine;
using core::RunMetrics;
using core::StartType;
using sim::msec;
using sim::sec;

// ------------------------------------------------------------- RainbowCake

TEST(RainbowCake, LayersCheapenRepeatColdStarts)
{
    // First cold start pays the full latency.  The whole container
    // expires (2-min TTL), but its layers linger — the second cold start
    // on the same worker must pay only a small fraction.
    trace::Trace t;
    const auto fn = addFunction(t, 512, msec(1000));
    t.addRequest(fn, 0, msec(10));
    t.addRequest(fn, sec(400), msec(10)); // after container TTL
    t.seal();

    Engine engine(t, smallConfig(), makeRainbowCake(RainbowCakeConfig{}, 1));
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.count(StartType::Cold), 2u);
    ASSERT_EQ(m.outcomes.size(), 2u);
    EXPECT_EQ(m.outcomes[0].wait_us, msec(1000));
    // bare+lang+user all cached → only the irreducible 52% per-start
    // work (function init) remains.
    EXPECT_NEAR(static_cast<double>(m.outcomes[1].wait_us), 520e3, 5e3);
}

TEST(RainbowCake, LangLayerSharedAcrossFunctions)
{
    // Two functions with the same runtime: after fn0's container is
    // evicted, fn1's first-ever cold start is cheaper by the bare+lang
    // fractions (its *user* layer was never cached).
    trace::Trace t;
    trace::FunctionProfile f0;
    f0.memory_mb = 512;
    f0.cold_start_us = msec(1000);
    f0.runtime = trace::Runtime::Python;
    const auto fn0 = t.addFunction(std::move(f0));
    trace::FunctionProfile f1;
    f1.memory_mb = 512;
    f1.cold_start_us = msec(1000);
    f1.runtime = trace::Runtime::Python;
    const auto fn1 = t.addFunction(std::move(f1));
    t.addRequest(fn0, 0, msec(10));
    t.addRequest(fn1, sec(400), msec(10));
    t.seal();

    Engine engine(t, smallConfig(), makeRainbowCake(RainbowCakeConfig{}, 1));
    const RunMetrics m = engine.run();
    // 1 - 0.05 (bare) - 0.13 (lang) = 0.82 of the original cost.
    EXPECT_NEAR(static_cast<double>(m.outcomes[1].wait_us), 820e3, 5e3);
}

TEST(RainbowCake, LayerTtlExpires)
{
    // Far beyond every layer TTL the cold start is full price again.
    trace::Trace t;
    const auto fn = addFunction(t, 512, msec(1000));
    t.addRequest(fn, 0, msec(10));
    t.addRequest(fn, sec(3600), msec(10));
    t.seal();

    Engine engine(t, smallConfig(), makeRainbowCake(RainbowCakeConfig{}, 1));
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.outcomes[1].wait_us, msec(1000));
}

TEST(RainbowCake, ShedsLayersUnderPressure)
{
    // Layer memory must yield to real containers when memory is tight.
    trace::Trace t;
    const auto a = addFunction(t, 600, msec(500));
    const auto b = addFunction(t, 600, msec(500));
    t.addRequest(a, 0, msec(10));
    t.addRequest(b, sec(150), msec(10)); // a's container expired → layers
    t.addRequest(a, sec(300), msec(10));
    t.seal();

    // 700 MB: b's container only fits if a's demoted layers are shed.
    Engine engine(t, smallConfig(700), makeRainbowCake(RainbowCakeConfig{}, 1));
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.total(), 3u); // completes without deadlock
}

TEST(RainbowCake, ReclaimShedsLayersOnAWorkerWithNoIdleContainer)
{
    // a's container expires and demotes its layers.  When b arrives the
    // worker holds no container at all, only layer memory, and b fits
    // only if some of it is shed: the engine must still ask the policy
    // for a plan rather than defer b as unreclaimable.
    trace::Trace t;
    const auto a = addFunction(t, 600, msec(500));
    const auto b = addFunction(t, 800, msec(500));
    t.addRequest(a, 0, msec(10));
    t.addRequest(b, sec(400), msec(10)); // a's container expired at ~301 s
    t.seal();

    Engine engine(t, smallConfig(1000),
                  makeRainbowCake(RainbowCakeConfig{}, 1));
    engine.begin();
    engine.stepUntil(sec(399));
    const cluster::Worker &host = engine.clusterRef().worker(0);
    ASSERT_TRUE(engine.idleContainersOn(0).empty());
    ASSERT_EQ(host.containerMb(), 0);
    const std::int64_t layers = host.usedMb();
    ASSERT_GT(layers, 1000 - 800);

    engine.stepUntil(sec(400));
    EXPECT_LT(host.usedMb() - host.containerMb(), layers);
    EXPECT_EQ(host.containerMb(), 800); // b's cold start is under way
    const RunMetrics m = engine.finish();
    EXPECT_EQ(m.total(), 2u);
    EXPECT_EQ(m.deferred_provisions, 0u);
}

// -------------------------------------------------------------- IceBreaker

TEST(IceBreaker, PredictsPeriodicFunctions)
{
    IceBreakerConfig config;
    IceBreakerAgent agent(config);

    trace::Trace t;
    const auto fn = addFunction(t, 256, msec(100));
    for (int i = 0; i < 8; ++i)
        t.addRequest(fn, sec(10 * i), msec(10));
    t.seal();
    Engine engine(t, smallConfig(), cidre::test::simpleBundle());

    for (int i = 0; i < 6; ++i) {
        trace::Request req;
        req.function = fn;
        req.arrival_us = sec(10 * i);
        agent.onRequestObserved(engine, req);
    }
    const sim::SimTime predicted = agent.predictNextArrival(fn);
    EXPECT_EQ(predicted, sec(60)); // last arrival (50s) + 10s median gap
}

TEST(IceBreaker, RefusesErraticFunctions)
{
    IceBreakerConfig config;
    config.max_gap_cv = 0.5;
    IceBreakerAgent agent(config);

    trace::Trace t;
    const auto fn = addFunction(t, 256, msec(100));
    t.addRequest(fn, 0, msec(10));
    t.seal();
    Engine engine(t, smallConfig(), cidre::test::simpleBundle());

    const sim::SimTime gaps[] = {sec(1), sec(100), sec(2), sec(400),
                                 sec(3), sec(50)};
    sim::SimTime at = 0;
    for (const sim::SimTime gap : gaps) {
        at += gap;
        trace::Request req;
        req.function = fn;
        req.arrival_us = at;
        agent.onRequestObserved(engine, req);
    }
    EXPECT_EQ(agent.predictNextArrival(fn), sim::kTimeInfinity);
}

TEST(IceBreaker, PrewarmTurnsColdIntoWarm)
{
    // Strictly periodic function whose keep window (10 s) is shorter
    // than its 30 s period: without pre-warming, every invocation after
    // the first would be cold.  The predictor must re-provision shortly
    // before each predicted arrival, turning the tail into warm starts.
    trace::Trace t;
    const auto fn = addFunction(t, 256, msec(2000));
    for (int i = 0; i < 12; ++i)
        t.addRequest(fn, sec(30 * i), msec(100));
    t.seal();

    IceBreakerConfig config;
    config.stale_after = sim::sec(10);
    config.prewarm_window = sim::sec(8);
    Engine engine(t, smallConfig(), makeIceBreaker(config));
    const RunMetrics m = engine.run();
    EXPECT_GT(m.prewarms, 0u);
    // The first few are cold (no history), the later ones warm.
    EXPECT_GT(m.count(StartType::Warm), 4u);
    EXPECT_GT(m.expirations, 0u);
}

// -------------------------------------------------------------- CodeCrunch

TEST(CodeCrunch, CompressesBeforeEvicting)
{
    // 1000 MB cache.  a (600 MB) is compressed to 200 MB when b
    // (500 MB) provisions; when a returns, restoring requires 400 MB of
    // headroom, which the policy obtains by compressing b in turn — a
    // restore at 10% of the cold-start cost instead of a full cold start.
    trace::Trace t;
    const auto a = addFunction(t, 600, msec(900));
    const auto b = addFunction(t, 500, msec(900));
    t.addRequest(a, 0, msec(10));
    t.addRequest(b, sec(1), msec(10));
    t.addRequest(a, sec(2), msec(10));
    t.seal();

    core::EngineConfig config = smallConfig(1000);
    config.compression_ratio = 3.0;
    config.restore_cost_fraction = 0.1;
    Engine engine(t, std::move(config), makeCodeCrunch());
    const RunMetrics m = engine.run();

    EXPECT_GE(m.compressions, 2u);
    EXPECT_EQ(m.count(StartType::Restored), 1u);
    // The restore costs 10% of the 900 ms cold start.
    EXPECT_EQ(m.outcomes[2].wait_us, msec(90));
}

TEST(CodeCrunch, EvictsWhenCompressionInsufficient)
{
    // Three distinct 600 MB functions through a 820 MB cache: the third
    // provision cannot be satisfied by compression alone.
    trace::Trace t;
    const auto a = addFunction(t, 600, msec(900));
    const auto b = addFunction(t, 600, msec(900));
    const auto c = addFunction(t, 600, msec(900));
    t.addRequest(a, 0, msec(10));
    t.addRequest(b, sec(1), msec(10));
    t.addRequest(c, sec(2), msec(10));
    t.seal();

    Engine engine(t, smallConfig(820), makeCodeCrunch());
    const RunMetrics m = engine.run();
    EXPECT_GE(m.evictions, 1u);
    EXPECT_EQ(m.total(), 3u);
}

// ------------------------------------------------------------------- Flame

TEST(Flame, EvictsColdFunctionsFirst)
{
    // hot is invoked continuously; lone fired once, long ago.  Pressure
    // must evict lone's container even though it is *more recently
    // created* than some of hot's.
    trace::Trace t;
    const auto hot = addFunction(t, 300, msec(100));
    const auto lone = addFunction(t, 300, msec(100));
    const auto probe = addFunction(t, 300, msec(100));
    for (int i = 0; i < 60; ++i)
        t.addRequest(hot, sec(i), msec(10));
    t.addRequest(lone, sec(55), msec(10));
    t.addRequest(probe, sec(56), msec(10)); // pressure: evict someone
    t.addRequest(hot, sec(57), msec(10));   // hot must still be warm
    t.seal();

    Engine engine(t, smallConfig(900), makeFlame(FlameConfig{}));
    const RunMetrics m = engine.run();
    const auto n = m.outcomes.size();
    EXPECT_EQ(m.outcomes[n - 1].type, StartType::Warm);
}

TEST(Flame, TieredTtlReapsColdSooner)
{
    FlameConfig config;
    config.hot_rate_per_min = 30.0;
    trace::Trace t;
    const auto hot = addFunction(t, 300, msec(100));
    const auto cold = addFunction(t, 300, msec(100));
    for (int i = 0; i < 120; ++i)
        t.addRequest(hot, msec(500 * i), msec(10)); // 120/min
    t.addRequest(cold, sec(10), msec(10));
    t.addRequest(cold, sec(100), msec(10)); // cold TTL (1 min) elapsed
    t.addRequest(hot, sec(100), msec(10));  // hot TTL (10 min) not
    t.seal();

    Engine engine(t, smallConfig(), makeFlame(config));
    const RunMetrics m = engine.run();
    const auto n = m.outcomes.size();
    EXPECT_EQ(m.outcomes[n - 2].type, StartType::Cold); // cold reaped
    EXPECT_EQ(m.outcomes[n - 1].type, StartType::Warm); // hot kept
    EXPECT_GE(m.expirations, 1u);
}

// ------------------------------------------------------------------ ENSURE

TEST(Ensure, MaintainsBurstBuffer)
{
    // A steady 1 req/s function with 600 ms executions is served by a
    // single container (offered load ≈ 0.6), but ENSURE's square-root
    // headroom targets 2 — it must pre-warm the buffer container.
    trace::Trace t;
    const auto fn = addFunction(t, 128, msec(100));
    for (int i = 0; i < 60; ++i)
        t.addRequest(fn, sec(i), msec(600));
    t.seal();

    Engine engine(t, smallConfig(), makeEnsure(EnsureConfig{}));
    const RunMetrics m = engine.run();
    EXPECT_GT(m.prewarms, 0u);
    EXPECT_GT(m.warmRatio(), 0.9);
}

TEST(Ensure, DeactivatesSurplusAfterCooldown)
{
    // A burst provisions several containers; after the burst the target
    // drops and the cooldown elapses → surplus idle containers reaped.
    trace::Trace t;
    const auto fn = addFunction(t, 128, msec(100));
    for (int i = 0; i < 10; ++i)
        t.addRequest(fn, msec(i), msec(500)); // 10-wide burst
    // Sparse tail keeps the engine ticking past the cooldown.
    t.addRequest(fn, sec(120), msec(10));
    t.seal();

    EnsureConfig config;
    config.cooldown = sec(10);
    Engine engine(t, smallConfig(), makeEnsure(config));
    const RunMetrics m = engine.run();
    EXPECT_GT(m.expirations, 3u); // most of the 10 deactivated
}

TEST(Ensure, TargetPoolSizeFormula)
{
    trace::Trace t;
    const auto fn = addFunction(t, 128, msec(100), msec(1000));
    for (int i = 0; i < 50; ++i)
        t.addRequest(fn, msec(250 * i), sec(1)); // 4 rps × 1 s exec
    t.seal();

    EnsureAgent agent{EnsureConfig{}};
    Engine engine(t, smallConfig(), cidre::test::simpleBundle());
    engine.run();
    // Offered load ≈ 4 → target = 4 + ceil(sqrt(4)) = 6.
    const auto target = agent.targetPoolSize(engine, fn);
    EXPECT_GE(target, 5u);
    EXPECT_LE(target, 7u);
}

} // namespace
} // namespace cidre::policies

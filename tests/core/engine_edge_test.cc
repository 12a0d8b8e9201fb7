/**
 * @file
 * Edge-case tests of the orchestration engine: degenerate requests,
 * simultaneous arrivals, oracle helpers, estimate fallbacks, and
 * memory-fragmentation corners.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "policies/keepalive/lru.h"
#include "policies/scaling/bss.h"
#include "policies/scaling/vanilla.h"
#include "tests/core/test_helpers.h"
#include "trace/trace_io.h"

namespace cidre::core {
namespace {

using cidre::test::addFunction;
using cidre::test::bundleOf;
using cidre::test::simpleBundle;
using cidre::test::smallConfig;
using sim::msec;
using sim::sec;

TEST(EngineEdge, CsvExecPastTheHorizonFailsAtIntake)
{
    // The CSV scanner checks only the sign, so an exec of INT64_MAX
    // parses.  The engine's intake must name the request instead of
    // overflowing arrival + exec.
    std::istringstream csv("F,0,f,128,50000,python,5000\n"
                           "R,0,1000,5000\n"
                           "R,0,2000,9223372036854775807\n");
    const trace::Trace t = trace::readTrace(csv);
    Engine engine(t, smallConfig(), simpleBundle());
    std::string error;
    try {
        engine.run();
    } catch (const std::invalid_argument &e) {
        error = e.what();
    }
    EXPECT_NE(error.find("request 1: arrival + exec exceeds"),
              std::string::npos)
        << error;
}

TEST(EngineEdge, ZeroExecutionRequests)
{
    trace::Trace t;
    const auto fn = addFunction(t, 128, msec(50));
    for (int i = 0; i < 10; ++i)
        t.addRequest(fn, msec(10 * i), 0); // instantaneous functions
    t.seal();

    Engine engine(t, smallConfig(), simpleBundle());
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.total(), 10u);
    // r0–r4 arrive during the 50 ms provisioning window and cold start
    // (vanilla).  r5 arrives at the exact instant r0's container turns
    // live: the zero-length execution occupies it within that instant,
    // so r5 colds too; r6–r9 find it idle and start warm.
    EXPECT_EQ(m.count(StartType::Cold), 6u);
    EXPECT_EQ(m.count(StartType::Warm), 4u);
    for (const auto &outcome : m.outcomes)
        EXPECT_GE(outcome.wait_us, 0);
}

TEST(EngineEdge, SimultaneousArrivalsKeepTraceOrder)
{
    trace::Trace t;
    const auto a = addFunction(t, 128, msec(50));
    const auto b = addFunction(t, 128, msec(100));
    // Same timestamp; insertion order must be preserved by seal() and
    // replay (stable sort + FIFO event queue).
    t.addRequest(a, msec(5), msec(10));
    t.addRequest(b, msec(5), msec(10));
    t.addRequest(a, msec(5), msec(10));
    t.seal();

    EXPECT_EQ(t.requests()[0].function, a);
    EXPECT_EQ(t.requests()[1].function, b);
    EXPECT_EQ(t.requests()[2].function, a);

    Engine engine(t, smallConfig(), simpleBundle());
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.total(), 3u);
}

TEST(EngineEdge, EstimateFallbacksWithoutHistory)
{
    trace::Trace t;
    const auto fn = addFunction(t, 128, msec(123), msec(456));
    t.addRequest(fn, sec(1), msec(10));
    t.seal();

    Engine engine(t, smallConfig(), simpleBundle());
    // Before any request ran, estimates fall back to the profile.
    EXPECT_EQ(engine.estimateExecTime(fn), msec(456));
    EXPECT_EQ(engine.estimateColdTime(fn), msec(123));
    engine.run();
    // Afterwards they reflect observed history.
    EXPECT_EQ(engine.estimateExecTime(fn), msec(10));
    EXPECT_EQ(engine.estimateColdTime(fn), msec(123));
}

TEST(EngineEdge, OracleHelpers)
{
    trace::Trace t;
    const auto fn = addFunction(t, 128, msec(100));
    t.addRequest(fn, sec(1), msec(10));
    t.addRequest(fn, sec(5), msec(10));
    t.seal();

    Engine engine(t, smallConfig(), simpleBundle());
    EXPECT_EQ(engine.nextArrivalAfter(fn, 0), sec(1));
    EXPECT_EQ(engine.nextArrivalAfter(fn, sec(1)), sec(5));
    EXPECT_EQ(engine.nextArrivalAfter(fn, sec(5)), sim::kTimeInfinity);
    // The busy-completion view requires the scaling policy's opt-in
    // (vanilla scaling never reads it, so the engine skips upkeep).
    EXPECT_THROW(engine.busyCompletionView(fn), std::logic_error);
    engine.run();
}

TEST(EngineEdge, ReapContainerValidation)
{
    trace::Trace t;
    const auto fn = addFunction(t, 128, msec(50));
    t.addRequest(fn, 0, msec(10));
    t.seal();

    Engine engine(t, smallConfig(), simpleBundle());
    engine.run();
    // The lone container idles after the run; reaping works once.
    engine.reapContainer(0, /*expired=*/true);
    EXPECT_TRUE(engine.clusterRef().container(0).evicted());
    EXPECT_THROW(engine.reapContainer(0, true), std::logic_error);
}

TEST(EngineEdge, PrewarmRespectsMemory)
{
    trace::Trace t;
    const auto big = addFunction(t, 900, msec(50));
    t.addRequest(big, 0, sec(1)); // busy: occupies the whole budget
    t.seal();

    core::EngineConfig config = smallConfig(1000, 1);
    Engine engine(t, std::move(config), simpleBundle());
    // Drive the engine a bit by hand: prewarm before run() must fail
    // only when memory is unavailable — here the cache is empty, so it
    // succeeds and occupies the single slot.
    EXPECT_TRUE(engine.prewarm(big));
    EXPECT_FALSE(engine.prewarm(big)); // no room for a second
    engine.run();
}

TEST(EngineEdge, FragmentationAcrossWorkers)
{
    // Two workers of 500 MB each: a 400 MB idle container on each.  A
    // 450 MB provision fits on neither without eviction, but evicting
    // either single victim suffices — the engine must not demand the
    // aggregate (800 MB) from one worker.
    trace::Trace t;
    const auto small = addFunction(t, 400, msec(10));
    const auto wide = addFunction(t, 450, msec(10));
    t.addRequest(small, 0, msec(5));
    t.addRequest(small, msec(1), msec(5)); // second container, other worker
    t.addRequest(wide, sec(1), msec(5));
    t.seal();

    Engine engine(t, smallConfig(1000, 2), simpleBundle());
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.total(), 3u);
    EXPECT_EQ(m.evictions, 1u);
}

TEST(EngineEdge, BoundQueueSurvivesContainerReuse)
{
    // A bound (vanilla) cold-start request whose container serves other
    // work first is impossible — bound containers serve their queue on
    // provisioning completion.  Verify the bound request is not lost
    // when provisioning is deferred and later satisfied.
    trace::Trace t;
    const auto a = addFunction(t, 600, msec(10));
    const auto b = addFunction(t, 600, msec(10));
    t.addRequest(a, 0, msec(500));
    t.addRequest(b, msec(10), msec(10)); // deferred until a finishes
    t.seal();

    Engine engine(t, smallConfig(1000, 1), simpleBundle());
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.total(), 2u);
    EXPECT_EQ(m.deferred_provisions, 1u);
}

TEST(EngineEdge, BssManyFunctionsInterleaved)
{
    // Interleaved bursts across functions with speculation: exercises
    // channel bookkeeping across functions sharing workers.
    trace::Trace t;
    std::vector<trace::FunctionId> fns;
    for (int f = 0; f < 4; ++f)
        fns.push_back(addFunction(t, 200, msec(150)));
    for (int i = 0; i < 40; ++i)
        t.addRequest(fns[i % 4], msec(7 * i), msec(60));
    t.seal();

    Engine engine(t, smallConfig(4 * 1024, 2),
                  bundleOf(std::make_unique<policies::BssScaling>(),
                           std::make_unique<policies::LruKeepAlive>()));
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.total(), 40u);
    EXPECT_GT(m.count(StartType::DelayedWarm) + m.count(StartType::Warm),
              10u);
}

TEST(EngineEdge, RequestsBeyondTraceEndStillComplete)
{
    // Executions extending past the last arrival must still finish (the
    // tick loop keeps running until every request completed).
    trace::Trace t;
    const auto fn = addFunction(t, 128, msec(10));
    t.addRequest(fn, 0, sec(30)); // runs long after the trace "ends"
    t.seal();

    Engine engine(t, smallConfig(), simpleBundle());
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.total(), 1u);
    EXPECT_GE(m.makespan(), sec(30));
}

} // namespace
} // namespace cidre::core

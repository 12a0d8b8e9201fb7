/**
 * @file
 * Tests for the keep-alive (eviction) policies: ranking order under
 * pressure, GDSF/CIP priority arithmetic, Belady oracle use.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "policies/keepalive/belady.h"
#include "policies/keepalive/cip.h"
#include "policies/keepalive/gdsf.h"
#include "policies/keepalive/lru.h"
#include "policies/keepalive/ttl.h"
#include "policies/scaling/vanilla.h"
#include "sim/serialize.h"
#include "tests/core/test_helpers.h"

namespace cidre::policies {
namespace {

using cidre::test::addFunction;
using cidre::test::bundleOf;
using cidre::test::smallConfig;
using core::Engine;
using core::RunMetrics;
using core::StartType;
using sim::msec;
using sim::sec;

/**
 * Pressure scenario: memory fits two 400 MB containers.  Functions a and
 * b get warmed in order, then function c forces one eviction.  Which of
 * a/b survives distinguishes the policies.
 */
struct PressureOutcome
{
    bool a_survived;
    bool b_survived;
    RunMetrics metrics;
};

PressureOutcome
runPressure(std::unique_ptr<core::KeepAlivePolicy> keep_alive,
            int a_uses = 1, int b_uses = 1)
{
    trace::Trace t;
    // a: cheap cold start; b: expensive cold start (same size).
    const auto a = addFunction(t, 400, msec(10));
    const auto b = addFunction(t, 400, msec(900));
    const auto c = addFunction(t, 400, msec(10));

    sim::SimTime at = 0;
    for (int i = 0; i < a_uses; ++i, at += msec(100))
        t.addRequest(a, at, msec(5));
    sim::SimTime bt = sec(2);
    for (int i = 0; i < b_uses; ++i, bt += msec(100))
        t.addRequest(b, bt, msec(5));
    t.addRequest(c, sec(4), msec(5)); // forces one eviction
    // Probes long after: whoever survived serves a warm start.  b is
    // probed first — probing re-admits the function, which could itself
    // evict the other probe's container.
    t.addRequest(b, sec(6), msec(5));
    t.addRequest(a, sec(8), msec(5));
    t.seal();

    Engine engine(t, smallConfig(800),
                  bundleOf(std::make_unique<VanillaScaling>(),
                           std::move(keep_alive)));
    RunMetrics m = engine.run();
    // The probe requests are the last two outcomes (b then a).
    const auto n = m.outcomes.size();
    PressureOutcome out{
        m.outcomes[n - 1].type == StartType::Warm,
        m.outcomes[n - 2].type == StartType::Warm,
        std::move(m),
    };
    return out;
}

TEST(LruKeepAlive, EvictsLeastRecentlyUsed)
{
    // a was used last at ~t=0, b at ~t=2s: LRU evicts a.
    const auto out = runPressure(std::make_unique<LruKeepAlive>());
    EXPECT_FALSE(out.a_survived);
    EXPECT_TRUE(out.b_survived);
}

TEST(TtlKeepAlive, PressureEvictsOldestIdle)
{
    const auto out = runPressure(std::make_unique<TtlKeepAlive>());
    EXPECT_FALSE(out.a_survived);
    EXPECT_TRUE(out.b_survived);
}

TEST(GdsfKeepAlive, CostMattersMoreThanRecency)
{
    // Give a far more uses than b; but b's cold start is 90× more
    // expensive, so GDSF (freq·cost/size) still protects b.
    const auto out = runPressure(std::make_unique<GdsfKeepAlive>(), 5, 1);
    EXPECT_FALSE(out.a_survived);
    EXPECT_TRUE(out.b_survived);
}

TEST(GdsfKeepAlive, FrequencyProtectsHotFunctions)
{
    // Equal costs: the frequently used function must survive.
    trace::Trace t;
    const auto a = addFunction(t, 400, msec(100));
    const auto b = addFunction(t, 400, msec(100));
    const auto c = addFunction(t, 400, msec(100));
    // a's reuses start only after its cold start completed (t=100 ms) so
    // the sequence is served by one container, and no early eviction
    // inflates the GDSF clock watermark.
    t.addRequest(a, 0, msec(5));
    for (int i = 0; i < 9; ++i)
        t.addRequest(a, msec(150 + 100 * i), msec(5));
    t.addRequest(b, sec(2), msec(5));
    t.addRequest(c, sec(4), msec(5)); // evicts one of a/b
    t.addRequest(a, sec(6), msec(5));
    t.addRequest(b, sec(8), msec(5));
    t.seal();

    Engine engine(t, smallConfig(800),
                  bundleOf(std::make_unique<VanillaScaling>(),
                           std::make_unique<GdsfKeepAlive>()));
    const RunMetrics m = engine.run();
    const auto n = m.outcomes.size();
    EXPECT_EQ(m.outcomes[n - 2].type, StartType::Warm); // a survived
    EXPECT_EQ(m.outcomes[n - 1].type, StartType::Cold); // b evicted
}

TEST(GdsfKeepAlive, WatermarkMonotone)
{
    trace::Trace t;
    const auto a = addFunction(t, 400, msec(100));
    const auto b = addFunction(t, 400, msec(100));
    const auto c = addFunction(t, 400, msec(100));
    t.addRequest(a, 0, msec(5));
    t.addRequest(b, sec(1), msec(5));
    t.addRequest(c, sec(2), msec(5));
    t.addRequest(a, sec(3), msec(5));
    t.seal();

    auto keep_alive = std::make_unique<GdsfKeepAlive>();
    GdsfKeepAlive *raw = keep_alive.get();
    Engine engine(t, smallConfig(800),
                  bundleOf(std::make_unique<VanillaScaling>(),
                           std::move(keep_alive)));
    engine.run();
    EXPECT_GT(raw->watermark(), 0.0);
}

TEST(CipKeepAlive, ManyContainersLowerPriority)
{
    // Function a holds 3 warm containers (burst-driven); function b
    // holds 1 but is reused twice per round.  With aggregate counts
    // (GDSF) a looks hotter (9 vs 6 invocations) and b would be the
    // victim; CIP's per-container view (÷|F(c)|) instead sacrifices one
    // of a's three — the balanced eviction of Observation 2.
    trace::Trace t;
    const auto a = addFunction(t, 200, msec(100));
    const auto b = addFunction(t, 200, msec(100));
    const auto c = addFunction(t, 200, msec(100));
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 3; ++i)
            t.addRequest(a, sec(round) + msec(i), msec(50));
        t.addRequest(b, sec(round), msec(50));
        t.addRequest(b, sec(round) + msec(300), msec(50));
    }
    t.addRequest(c, sec(4), msec(5)); // pressure: one eviction needed
    t.addRequest(b, sec(6), msec(5)); // probe: b must still be warm
    t.seal();

    // Exactly 4 × 200 MB fit: a's three containers + b's one.
    Engine engine(t, smallConfig(800),
                  bundleOf(std::make_unique<VanillaScaling>(),
                           std::make_unique<CipKeepAlive>()));
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.outcomes.back().type, StartType::Warm);
    // a keeps 2 of its 3 containers: no full-function wipe-out.
    EXPECT_EQ(m.evictions, 1u);
}

TEST(CipKeepAlive, AdmissionInheritsEvictionWatermark)
{
    // §3.3: a container admitted via evictions starts with clock equal
    // to the max evicted priority, keeping clocks monotone.
    trace::Trace t;
    const auto a = addFunction(t, 400, msec(100));
    const auto b = addFunction(t, 400, msec(100));
    t.addRequest(a, 0, msec(5));
    t.addRequest(a, msec(200), msec(5)); // reuse inflates a's priority
    t.addRequest(b, sec(1), msec(5));    // evicts a's container
    t.seal();

    Engine engine(t, smallConfig(400), // fits exactly one container
                  bundleOf(std::make_unique<VanillaScaling>(),
                           std::make_unique<CipKeepAlive>()));
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.evictions, 1u);

    // b's container recycles the evicted slot: the slab stays at one
    // record even though two containers were created.
    const auto &containers = engine.clusterRef().allContainers();
    ASSERT_EQ(containers.size(), 1u);
    EXPECT_EQ(engine.clusterRef().createdTotal(), 2u);
    const auto &admitted = containers[0];
    EXPECT_EQ(admitted.seq, 1u);
    EXPECT_TRUE(admitted.live());
    // Without watermark inheritance a fresh container starts at clock 0;
    // here it inherited the evicted container's positive priority.  The
    // clock is later refreshed on use (clock ← priority), so the
    // priority keeps growing past it.
    EXPECT_GT(admitted.clock, 0.0);
    EXPECT_GT(admitted.priority, admitted.clock);
}

TEST(BeladyKeepAlive, EvictsFurthestFutureUse)
{
    // a's next use is sooner than b's: Belady must evict b.
    trace::Trace t;
    const auto a = addFunction(t, 400, msec(100));
    const auto b = addFunction(t, 400, msec(100));
    const auto c = addFunction(t, 400, msec(100));
    t.addRequest(a, 0, msec(5));
    t.addRequest(b, msec(100), msec(5));
    t.addRequest(c, sec(2), msec(5));   // pressure: evict a or b
    t.addRequest(a, sec(3), msec(5));   // a reused soon
    t.addRequest(b, sec(300), msec(5)); // b reused much later
    t.seal();

    Engine engine(t, smallConfig(800),
                  bundleOf(std::make_unique<VanillaScaling>(),
                           std::make_unique<BeladyKeepAlive>()));
    const RunMetrics m = engine.run();
    const auto n = m.outcomes.size();
    EXPECT_EQ(m.outcomes[n - 2].type, StartType::Warm); // a survived
    EXPECT_EQ(m.outcomes[n - 1].type, StartType::Cold); // b evicted
}

TEST(TtlKeepAlive, ExpiresAfterConfiguredLifespan)
{
    trace::Trace t;
    const auto a = addFunction(t, 100, msec(10));
    t.addRequest(a, 0, msec(5));
    t.addRequest(a, sec(20), msec(5));
    t.seal();

    Engine engine(
        t, smallConfig(),
        bundleOf(std::make_unique<VanillaScaling>(),
                 std::make_unique<TtlKeepAlive>(sec(5))));
    const RunMetrics m = engine.run();
    EXPECT_EQ(m.expirations, 1u);
    EXPECT_EQ(m.count(StartType::Cold), 2u);
}

/** One raw bucket entry as a ranked policy's checkpoint stores it. */
struct RawIdleEntry
{
    double key;
    std::uint64_t seq;
    std::uint32_t id;
    std::uint32_t zero_pad;
    std::uint64_t scan_mark;
};

/** A one-worker ranking payload with the given buckets. */
std::vector<std::byte>
rankingPayload(const std::vector<std::vector<RawIdleEntry>> &buckets,
               std::size_t scan_records)
{
    sim::StateWriter writer;
    writer.put<std::uint64_t>(1); // scan counter
    writer.put<std::uint64_t>(1); // workers
    writer.put<std::uint64_t>(buckets.size());
    for (const auto &bucket : buckets)
        writer.putVector(bucket);
    writer.putVector(std::vector<double>(scan_records, 0.0));
    writer.putVector(std::vector<std::uint64_t>(scan_records, 0));
    writer.put<std::uint64_t>(0); // epoch
    writer.put(true);             // valid
    return writer.release();
}

TEST(RankedKeepAlive, LoadRejectsACorruptRanking)
{
    trace::Trace t;
    const auto a = addFunction(t, 100, msec(10));
    t.addRequest(a, 0, msec(5));
    t.seal();
    const RawIdleEntry first{2.0, 1, 0, 0, 0};
    const RawIdleEntry second{1.0, 2, 1, 0, 0};

    const auto load = [](const std::vector<std::byte> &payload) {
        CipKeepAlive cip;
        sim::StateReader reader(payload);
        cip.loadState(reader);
    };
    // A bucket out of (key, seq) order, scan records that do not match
    // the buckets: rejected at load.
    EXPECT_THROW(load(rankingPayload({{first, second}}, 1)),
                 std::runtime_error);
    EXPECT_THROW(load(rankingPayload({{}}, 2)), std::runtime_error);
    EXPECT_NO_THROW(load(rankingPayload({{second, first}}, 1)));

    // More buckets than the workload has functions: the payload parses,
    // and the first scan on the engine rejects it.
    Engine engine(t, smallConfig(),
                  bundleOf(std::make_unique<VanillaScaling>(),
                           std::make_unique<LruKeepAlive>()));
    CipKeepAlive cip;
    const std::vector<std::byte> wide = rankingPayload({{}, {}}, 2);
    sim::StateReader reader(wide);
    cip.loadState(reader);
    core::ReclaimPlan plan;
    EXPECT_THROW(cip.planReclaim(engine,
                                 {0, 100, trace::kInvalidFunction,
                                  cluster::kInvalidContainer},
                                 plan),
                 std::runtime_error);
}

} // namespace
} // namespace cidre::policies

/**
 * @file
 * The determinism bridge: a stream-driven engine fed a trace's exact
 * arrival sequence must be bit-identical (metrics JSON) to the
 * trace-driven run — single-cell and sharded, bare admit loop and the
 * full producer/ring/orchestrator stack.  Streams run through
 * core::ShardedEngine, the type every live caller drives; the
 * single-cell reference is the plain core::Engine trace run.  A stream
 * checkpointed mid-way and resumed in fresh engines must match too.
 * Plus the live-mode guards and the orchestrator's out-of-order clamp.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/metrics_io.h"
#include "core/sharded_engine.h"
#include "live/ingest_ring.h"
#include "live/orchestrator.h"
#include "live/producer.h"
#include "policies/registry.h"
#include "sim/serialize.h"
#include "sim/topology.h"
#include "tests/core/test_helpers.h"
#include "trace/generators.h"

namespace cidre {
namespace {

std::string
metricsJson(const core::RunMetrics &metrics)
{
    std::ostringstream out;
    core::writeMetricsJson(metrics, out);
    return out.str();
}

trace::Trace
bridgeTrace()
{
    return trace::makeAzureLikeTrace(42, 0.02);
}

core::EngineConfig
bridgeConfig(std::uint32_t cells = 1)
{
    core::EngineConfig config;
    config.cluster.workers = 4;
    config.cluster.total_memory_mb = 24 * 1024;
    config.shard_cells = cells;
    return config;
}

core::ShardedEngine::PolicyFactory
factoryFor(const std::string &policy)
{
    return [policy](const core::EngineConfig &cell_config) {
        return policies::makePolicy(policy, cell_config);
    };
}

/** The trace-driven single-cell reference run. */
core::RunMetrics
traceRun(const trace::Trace &t, const core::EngineConfig &config,
         const std::string &policy)
{
    core::Engine engine(t, config, policies::makePolicy(policy, config));
    return engine.run();
}

/** Stream the trace's exact arrival sequence through admit(). */
core::RunMetrics
liveRun(const trace::Trace &t, const core::EngineConfig &config,
        const std::string &policy)
{
    const trace::TraceView view(t);
    core::ShardedEngine engine(view, config, factoryFor(policy));
    engine.beginLive();
    for (std::uint64_t i = 0; i < view.requestCount(); ++i)
        engine.admit(view.arrivalUs(i), view.requestFunction(i),
                     view.execUs(i));
    engine.closeStream();
    return engine.finish(nullptr);
}

TEST(LiveBridge, AdmitSequenceMatchesTraceRunBitForBit)
{
    const trace::Trace t = bridgeTrace();
    for (const char *policy : {"ttl", "cidre", "hybrid"}) {
        const std::string reference =
            metricsJson(traceRun(t, bridgeConfig(), policy));
        const std::string streamed =
            metricsJson(liveRun(t, bridgeConfig(), policy));
        EXPECT_EQ(reference, streamed) << "policy " << policy;
    }
}

TEST(LiveBridge, ShardedAdmitMatchesShardedTraceRun)
{
    const trace::Trace t = bridgeTrace();
    const core::EngineConfig config = bridgeConfig(2);
    core::ShardedEngine reference(t, config, factoryFor("cidre"));
    EXPECT_EQ(metricsJson(reference.run()),
              metricsJson(liveRun(t, config, "cidre")));
}

/**
 * Admit half the trace, checkpoint between two admissions, restore into
 * fresh engines and admit the rest: the metrics JSON equals the trace
 * run's.  A request is carried by value until it completes, so a live
 * engine's state is a trace run's plus its stream flags and reserved
 * admission sequence, all of which the checkpoint holds.
 */
TEST(LiveBridge, CheckpointedStreamResumesBitForBit)
{
    const trace::Trace t = bridgeTrace();
    const trace::TraceView view(t);
    const std::uint64_t half = view.requestCount() / 2;
    const auto admitRows = [&view](core::ShardedEngine &engine,
                                   std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t i = begin; i < end; ++i)
            engine.admit(view.arrivalUs(i), view.requestFunction(i),
                         view.execUs(i));
    };
    for (const std::uint32_t cells : {1u, 2u}) {
        const core::EngineConfig config = bridgeConfig(cells);
        core::ShardedEngine reference(view, config, factoryFor("cidre"));
        const std::string expected = metricsJson(reference.run());

        const std::uint64_t fingerprint =
            core::checkpointFingerprint(config, "cidre", view);
        core::CheckpointBuffer buffer;
        {
            core::ShardedEngine first(view, config, factoryFor("cidre"));
            first.beginLive();
            admitRows(first, 0, half);
            sim::StateWriter writer;
            first.saveState(writer);
            buffer = core::makeCheckpointBuffer(fingerprint,
                                                writer.release());
        }
        core::ShardedEngine resumed(view, config, factoryFor("cidre"));
        const std::vector<std::byte> payload =
            core::openCheckpointBuffer(buffer, fingerprint);
        sim::StateReader reader(payload);
        resumed.loadState(reader);
        admitRows(resumed, half, view.requestCount());
        resumed.closeStream();
        EXPECT_EQ(expected, metricsJson(resumed.finish(nullptr)))
            << cells << " cells";
    }
}

/** The full stack: pacer thread -> ring -> orchestrator loop. */
TEST(LiveBridge, FullStreamStackMatchesTraceRun)
{
    const trace::Trace t = bridgeTrace();
    const trace::TraceView view(t);
    const core::EngineConfig config = bridgeConfig();
    const std::string reference =
        metricsJson(traceRun(t, config, "cidre"));

    core::ShardedEngine engine(view, config, factoryFor("cidre"));
    engine.beginLive();

    live::IngestRing ring(1024);
    live::ProducerStats producer_stats;
    std::atomic<bool> done{false};
    live::TracePacer pacer(view, ring, producer_stats, {});
    pacer.start();
    std::thread closer([&pacer, &done] {
        pacer.join();
        done.store(true, std::memory_order_release);
    });
    const live::LiveStats stats = live::runLive(engine, ring, done, {});
    closer.join();

    EXPECT_EQ(stats.admitted, view.requestCount());
    EXPECT_EQ(stats.decision_ns.count(), view.requestCount());
    EXPECT_EQ(stats.reordered, 0u);
    EXPECT_EQ(producer_stats.produced.load(), view.requestCount());
    EXPECT_EQ(reference, metricsJson(engine.finish(nullptr)));
}

TEST(LiveBridge, PacerCutoffStreamsOnlyEarlyArrivals)
{
    const trace::Trace t = bridgeTrace();
    const trace::TraceView view(t);
    std::uint64_t early = 0;
    const sim::SimTime cutoff = sim::sec(600);
    while (early < view.requestCount() && view.arrivalUs(early) < cutoff)
        ++early;
    ASSERT_GT(early, 0u);
    ASSERT_LT(early, view.requestCount());

    // Room for the whole cutoff prefix, so the pacer never blocks and
    // the test can join it before draining.
    live::IngestRing ring(early + 1);
    live::ProducerStats producer_stats;
    live::PacerOptions options;
    options.until_us = cutoff;
    live::TracePacer pacer(view, ring, producer_stats, options);
    pacer.start();

    std::vector<live::IngestRequest> batch(256);
    std::uint64_t drained = 0;
    // The pacer stops at the cutoff; drain after it joins.
    pacer.join();
    for (;;) {
        const std::size_t n = ring.drain(batch.data(), batch.size());
        if (n == 0)
            break;
        drained += n;
    }
    EXPECT_EQ(drained, early);
    EXPECT_EQ(producer_stats.produced.load(), early);
}

/**
 * Arrivals drained out of global order (multi-producer interleave) are
 * clamped forward to the previous admission's timestamp and counted —
 * never reordered, never rejected.
 */
TEST(LiveBridge, OrchestratorClampsOutOfOrderArrivals)
{
    trace::Trace t;
    const auto fn = test::addFunction(t, 256, sim::msec(100));
    t.addRequest(fn, 0, sim::msec(10)); // live engines need >= 1 request
    t.seal();

    core::EngineConfig config = test::smallConfig();
    config.record_per_request = false;
    core::ShardedEngine engine(t, config, factoryFor("ttl"));
    engine.beginLive();

    live::IngestRing ring(8);
    std::atomic<std::uint64_t> backpressure{0};
    // Second arrival is 1 ms *behind* the first: a merge artifact.
    ring.pushBlocking({fn, sim::msec(5), sim::msec(10)}, backpressure);
    ring.pushBlocking({fn, sim::msec(4), sim::msec(10)}, backpressure);
    ring.pushBlocking({fn, sim::msec(6), sim::msec(10)}, backpressure);
    std::atomic<bool> done{true};

    const live::LiveStats stats = live::runLive(engine, ring, done, {});
    EXPECT_EQ(stats.admitted, 3u);
    EXPECT_EQ(stats.reordered, 1u);
    const core::RunMetrics metrics = engine.finish(nullptr);
    // Only streamed admissions count: the trace is a function table in
    // live mode, its recorded requests are never scheduled.
    EXPECT_EQ(metrics.total(), 3u);
}

/**
 * A push that lands between the loop's empty drain and its done check
 * is returned by the final re-drain, and must be admitted, not dropped.
 * Racing many one-request streams against the loop hits that window;
 * cycling the two threads over every CPU pair makes sure the pairs
 * where it opens widest are among them (pins are best-effort).
 */
TEST(LiveBridge, FinalRedrainAdmitsTheLastPush)
{
    trace::Trace t;
    const auto fn = test::addFunction(t, 256, sim::msec(100));
    t.addRequest(fn, 0, sim::msec(10)); // live engines need >= 1 request
    t.seal();
    core::EngineConfig config = test::smallConfig();
    config.record_per_request = false;

    const int cpus =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    std::size_t lost = 0;
    for (int stream = 0; stream < 3000; ++stream) {
        core::ShardedEngine engine(t, config, factoryFor("ttl"));
        engine.beginLive();
        live::IngestRing ring(8);
        std::atomic<bool> done{false};
        const int producer_cpu = (stream / cpus) % cpus;
        std::thread producer([&ring, &done, fn, producer_cpu] {
            sim::ScopedAffinity pin(producer_cpu);
            std::atomic<std::uint64_t> backpressure{0};
            ring.pushBlocking({fn, sim::msec(1), sim::msec(10)},
                              backpressure);
            done.store(true, std::memory_order_release);
        });
        live::OrchestratorOptions options;
        options.pin_cpu = stream % cpus;
        const live::LiveStats stats =
            live::runLive(engine, ring, done, options);
        producer.join();
        if (stats.admitted != 1)
            ++lost;
    }
    EXPECT_EQ(lost, 0u) << "streams whose only request was never admitted";
}

TEST(LiveBridge, LiveModeGuards)
{
    trace::Trace t;
    const auto fn = test::addFunction(t, 256, sim::msec(100));
    t.addRequest(fn, 0, sim::msec(10));
    t.seal();
    const core::EngineConfig config = test::smallConfig();

    {
        // Live mode cannot honor the per-request outcome log: the
        // scatter assumes trace indices.
        core::Engine engine(trace::TraceView(t), config,
                            policies::makePolicy("ttl", config));
        EXPECT_THROW(engine.beginLive(), std::logic_error);
    }

    core::EngineConfig plain = config;
    plain.record_per_request = false;
    core::Engine engine(trace::TraceView(t), plain,
                        policies::makePolicy("ttl", plain));
    EXPECT_THROW(engine.admit(0, fn, 1), std::logic_error);
    engine.beginLive();
    EXPECT_THROW(engine.admit(0, fn + 1, 1), std::out_of_range);
    EXPECT_THROW(engine.admit(0, fn, -1), std::invalid_argument);
    // The intake trace mode applies too: no completion past the horizon.
    EXPECT_THROW(engine.admit(0, fn, sim::kTimeInfinity),
                 std::invalid_argument);
    engine.admit(sim::msec(1), fn, sim::msec(1));
    // Admissions must be nondecreasing (the orchestrator clamps).
    EXPECT_THROW(engine.admit(0, fn, 1), std::logic_error);
    // The stream must be closed before finalization.
    EXPECT_THROW(engine.finish(), std::logic_error);
    engine.closeStream();
    EXPECT_THROW(engine.admit(sim::msec(2), fn, 1), std::logic_error);
    const core::RunMetrics metrics = engine.finish();
    EXPECT_EQ(metrics.total(), 1u);
}

TEST(LiveBridge, SyntheticOpenLoopDrivesTheFullStack)
{
    trace::Trace t;
    const auto fn_a = test::addFunction(t, 256, sim::msec(100));
    const auto fn_b = test::addFunction(t, 128, sim::msec(50));
    t.addRequest(fn_a, 0, sim::msec(10));
    t.addRequest(fn_b, 1, sim::msec(10));
    t.seal();
    core::EngineConfig config = test::smallConfig();
    config.record_per_request = false;

    core::ShardedEngine engine(t, config, factoryFor("ttl"));
    engine.beginLive();

    live::IngestRing ring(256);
    live::ProducerStats producer_stats;
    live::SyntheticOptions options;
    options.producers = 3;
    options.requests_per_producer = 5'000;
    options.function_count = 2;
    options.exec_us = sim::msec(1);
    std::atomic<bool> done{false};
    live::SyntheticProducers producers(ring, producer_stats, options);
    producers.start();
    std::thread closer([&producers, &done] {
        producers.join();
        done.store(true, std::memory_order_release);
    });
    const live::LiveStats stats = live::runLive(engine, ring, done, {});
    closer.join();

    EXPECT_EQ(stats.admitted, 15'000u);
    EXPECT_EQ(producer_stats.produced.load(), 15'000u);
    const core::RunMetrics metrics = engine.finish(nullptr);
    EXPECT_EQ(metrics.total(), 15'000u);
}

} // namespace
} // namespace cidre

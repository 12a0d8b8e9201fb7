/**
 * @file
 * Live-orchestrator latency and throughput: the bounded-per-decision
 * claim, measured end to end through the production-shaped path —
 * producer threads -> lock-free ingest ring -> single admission loop.
 *
 * Two sections:
 *
 *  - **Sustained admission throughput** (synthetic open-loop): several
 *    producer threads push an open-loop arrival stream as fast as the
 *    ring accepts while the orchestrator admits into a ttl-policy
 *    engine.  The reported rate is admissions over the whole loop
 *    lifetime — drain, decision, and simulated completions between
 *    admissions all included.  CI gates a floor on this number.
 *
 *  - **Decision latency per policy** (trace replay): the Azure-like
 *    workload streamed unpaced through the ring, one engine per policy
 *    (ttl, cidre, hybrid).  Each admission's wall nanoseconds land in
 *    the log-bucketed histogram; the table reports p50/p99/p999/max.
 *    CI gates a ceiling on the cidre p99.  These replayed runs are
 *    bit-identical to `cidre_sim run` on the same trace (pinned by
 *    test_live and the CI live-smoke job), so the latency numbers
 *    price the real decision path, not a simplified clone.
 *
 * Results go to stdout and BENCH_live.json (override with --out);
 * --smoke shrinks both sections for CI.
 */

#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/sharded_engine.h"
#include "exp/telemetry.h"
#include "live/ingest_ring.h"
#include "live/orchestrator.h"
#include "live/producer.h"
#include "policies/registry.h"
#include "trace/trace_view.h"

namespace cidre::bench {
namespace {

struct LiveRun
{
    live::LiveStats stats;
    std::uint64_t backpressure = 0;
};

/** Admission loop over a started producer; joins it via the closer. */
template <typename Producer>
LiveRun
consume(core::ShardedEngine &engine, live::IngestRing &ring,
        Producer &producer, live::ProducerStats &producer_stats,
        const live::OrchestratorOptions &options)
{
    engine.beginLive();
    std::atomic<bool> done{false};
    producer.start();
    std::thread closer([&producer, &done] {
        producer.join();
        done.store(true, std::memory_order_release);
    });
    LiveRun run;
    run.stats = live::runLive(engine, ring, done, options);
    closer.join();
    run.backpressure = producer_stats.backpressure.load();
    (void)engine.finish(nullptr); // runLive already closed the stream
    return run;
}

/** A one-cell engine: the pass-through shape every live caller runs. */
core::ShardedEngine
makeEngine(trace::TraceView workload, const std::string &policy)
{
    return core::ShardedEngine(
        workload, defaultConfig(),
        [policy](const core::EngineConfig &cell_config) {
            return policies::makePolicy(policy, cell_config);
        });
}

} // namespace
} // namespace cidre::bench

int
main(int argc, char **argv)
{
    using namespace cidre;
    using namespace cidre::bench;

    std::string out_path = "BENCH_live.json";
    bool smoke = false;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--out" && i + 1 < argc) {
            out_path = argv[++i];
            continue;
        }
        if (std::string(argv[i]) == "--smoke") {
            smoke = true;
            continue;
        }
        rest.push_back(argv[i]);
    }
    const Options options = parseOptions(
        static_cast<int>(rest.size()), rest.data(), "bench_live_latency",
        "live-orchestrator sustained admission throughput and"
        " per-decision latency (also: --out <json-path>, --smoke)");

    banner("Live-orchestrator latency",
           "streaming ingest, bounded per-decision admission");

    live::OrchestratorOptions orch;
    orch.pin_cpu = 0; // keep the admission loop's timings on one core

    // ---- section 1: sustained admission throughput (open-loop) ----------
    const unsigned producers = 4;
    const std::uint64_t synth_total = smoke ? 400'000 : 4'000'000;
    std::cerr << "[bench] open-loop throughput (" << producers
              << " producers, " << synth_total << " requests)...\n";

    const trace::Trace &azure = azureTrace(options);
    const trace::TraceView view(azure);

    LiveRun synth_run;
    {
        core::ShardedEngine engine = makeEngine(view, "ttl");
        live::IngestRing ring(1 << 16);
        live::ProducerStats producer_stats;
        live::SyntheticOptions synth;
        synth.producers = producers;
        synth.requests_per_producer = synth_total / producers;
        synth.inter_arrival_us = 1;
        synth.exec_us = sim::msec(1);
        synth.function_count =
            static_cast<std::uint32_t>(view.functionCount());
        synth.seed = options.seed;
        live::SyntheticProducers source(ring, producer_stats, synth);
        synth_run = consume(engine, ring, source, producer_stats, orch);
    }
    const double admit_rate = synth_run.stats.admitRate();

    stats::Table synth_table({"producers", "requests", "wall_s",
                              "admit_per_sec", "backpressure"});
    synth_table.addRow({std::to_string(producers),
                        std::to_string(synth_run.stats.admitted),
                        stats::formatFixed(synth_run.stats.wall_seconds, 3),
                        stats::formatFixed(admit_rate, 0),
                        std::to_string(synth_run.backpressure)});
    emit(options, "live_throughput", synth_table);

    // ---- section 2: per-decision latency per policy (trace replay) ------
    const std::vector<std::string> policies = {"ttl", "cidre", "hybrid"};
    std::cerr << "[bench] trace replay (" << view.requestCount()
              << " requests) per policy...\n";

    stats::Table latency_table({"policy", "p50_ns", "p99_ns", "p999_ns",
                                "max_ns", "mean_ns", "admit_per_sec"});
    std::vector<LiveRun> runs;
    for (const std::string &policy : policies) {
        core::ShardedEngine engine = makeEngine(view, policy);
        live::IngestRing ring(1 << 16);
        live::ProducerStats producer_stats;
        live::TracePacer pacer(view, ring, producer_stats, {});
        const LiveRun run =
            consume(engine, ring, pacer, producer_stats, orch);
        const stats::LatencyHistogram &h = run.stats.decision_ns;
        latency_table.addRow(
            {policy, std::to_string(h.percentile(0.5)),
             std::to_string(h.percentile(0.99)),
             std::to_string(h.percentile(0.999)),
             std::to_string(h.maxValue()),
             stats::formatFixed(h.mean(), 0),
             stats::formatFixed(run.stats.admitRate(), 0)});
        runs.push_back(run);
    }
    emit(options, "live_latency", latency_table);

    const std::int64_t peak_rss_mb = exp::peakRssMb();
    std::cout << "sustained admission: "
              << stats::formatFixed(admit_rate / 1e6, 3)
              << " M req/s  peak RSS: " << peak_rss_mb << " MB\n";

    std::ofstream json(out_path);
    if (!json) {
        std::cerr << "bench_live_latency: cannot write " << out_path
                  << "\n";
        return 1;
    }
    json.precision(3);
    json.setf(std::ios::fixed);
    json << "{\n"
         << "  \"bench\": \"bench_live_latency\",\n"
         << "  \"build\": \"" << buildInfo() << "\",\n"
         << "  \"seed\": " << options.seed << ",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"live\": {\n"
         << "    \"producers\": " << producers << ",\n"
         << "    \"synthetic_requests\": " << synth_run.stats.admitted
         << ",\n"
         << "    \"admit_rate_per_sec\": " << admit_rate << ",\n"
         << "    \"backpressure\": " << synth_run.backpressure << ",\n"
         << "    \"trace_requests\": " << view.requestCount() << ",\n"
         << "    \"policies\": {\n";
    for (std::size_t p = 0; p < policies.size(); ++p) {
        const stats::LatencyHistogram &h = runs[p].stats.decision_ns;
        json << "      \"" << policies[p] << "\": {"
             << "\"p50_ns\": " << h.percentile(0.5)
             << ", \"p99_ns\": " << h.percentile(0.99)
             << ", \"p999_ns\": " << h.percentile(0.999)
             << ", \"max_ns\": " << h.maxValue()
             << ", \"mean_ns\": " << h.mean()
             << ", \"admit_rate_per_sec\": " << runs[p].stats.admitRate()
             << "}" << (p + 1 < policies.size() ? "," : "") << "\n";
    }
    json << "    },\n"
         << "    \"peak_rss_mb\": " << peak_rss_mb << "\n"
         << "  }\n"
         << "}\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}

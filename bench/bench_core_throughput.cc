/**
 * @file
 * Core simulation throughput: the event queue on its own, plus
 * whole-engine events/sec across trace scales.
 *
 * Sections:
 *
 *  1. A queue-only microbenchmark replaying a trace-shaped event stream
 *     (chained arrivals, completion events carrying a container id and
 *     a request index like core::Engine's, and a 1-second maintenance
 *     tick) through sim::EventQueue, popped and dispatched by one
 *     switch as the engine does.
 *
 *  2. Engine end-to-end events/sec for a few policies × trace scales,
 *     using Engine::eventsExecuted() (the same figure the [exp]
 *     telemetry line reports).
 *
 *  3. Intra-trial shard scaling: ONE large partitioned trial
 *     (shard_cells = 4) executed with 1, 2 and 4 shard threads via
 *     core::ShardedEngine — the wall-clock payoff of the `--shards`
 *     knob.  Workers are pinned per --pin (default auto: one worker
 *     per physical core when the machine has enough; off otherwise).
 *     The results are bit-identical across thread counts and pin modes
 *     (the golden tests pin that); this section measures only the
 *     speedup.  The machine's *full* topology — physical cores, SMT,
 *     NUMA nodes, sockets, not just hw_threads — is recorded in the
 *     banner and JSON, because a shard speedup is only meaningful
 *     relative to real parallelism: 4 shards on 4 hw_threads of a
 *     2-core SMT laptop cannot reach 2x, and CI gates on the speedup
 *     only when physical_cores exceeds the shard count.
 *
 *  4. Trace loading: CSV parse (write once, best-of-N reparse) vs
 *     `.ctrb` mmap open (validation included) on a ~1M-request trace
 *     (smaller under --smoke).  This is the payoff of the zero-copy
 *     trace substrate: open cost is one checksum sweep over mapped
 *     pages instead of per-request parsing plus seal() sorting.
 *
 * Results are printed as tables and written as JSON (default
 * BENCH_core.json in the working directory; override with --out).
 * The workload is the 200-function azure-like reference trace at the
 * --seed option (default 42).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/sharded_engine.h"
#include "exp/telemetry.h"
#include "policies/registry.h"
#include "sim/event_queue.h"
#include "sim/thread_pool.h"
#include "sim/topology.h"
#include "trace/trace_image.h"
#include "trace/trace_io.h"

namespace cidre::bench {
namespace {

/**
 * Replays the trace through the event queue the way core::Engine drives
 * it: tagged records popped and dispatched by one switch.  Each arrival
 * schedules the next one and a completion carrying a (u32, u64) payload
 * — the engine's (container id, request index) — and a 1-second
 * maintenance tick runs until the trace ends.
 */
class TraceDriver
{
  public:
    explicit TraceDriver(const trace::Trace &workload)
        : workload_(workload)
    {
    }

    std::uint64_t run()
    {
        scheduleArrival(0);
        queue_.schedule(sim::sec(1), kTick);
        while (!queue_.empty())
            dispatch(queue_.pop());
        return queue_.executedCount();
    }

  private:
    static constexpr std::uint32_t kArrival = 1;
    static constexpr std::uint32_t kTick = 2;
    static constexpr std::uint32_t kComplete = 3;

    void dispatch(const sim::Event &event)
    {
        switch (event.kind) {
          case kArrival:
            onArrival(event.b);
            break;
          case kTick:
            if (event.when < workload_.duration())
                queue_.scheduleAfter(sim::sec(1), kTick);
            break;
          case kComplete:
            payload_sum_ += event.a + event.b;
            break;
        }
    }

    void scheduleArrival(std::uint64_t index)
    {
        const auto &requests = workload_.requests();
        if (index < requests.size())
            queue_.schedule(requests[index].arrival_us, kArrival, 0, index);
    }

    void onArrival(std::uint64_t index)
    {
        scheduleArrival(index + 1);
        const auto container = static_cast<std::uint32_t>(index % 4096);
        queue_.scheduleAfter(workload_.requests()[index].exec_us, kComplete,
                             container, index);
    }

    const trace::Trace &workload_;
    sim::EventQueue queue_;
    std::uint64_t payload_sum_ = 0;
};

struct QueueRun
{
    std::uint64_t events = 0;
    double wall_ms = 0.0;
    double events_per_sec = 0.0;
    double ns_per_event = 0.0;
};

QueueRun
measureQueue(const trace::Trace &workload, int reps)
{
    QueueRun best;
    for (int rep = 0; rep < reps; ++rep) {
        TraceDriver driver(workload);
        const auto started = std::chrono::steady_clock::now();
        const std::uint64_t events = driver.run();
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - started)
                .count();
        if (rep == 0 || wall_ms < best.wall_ms) {
            best.events = events;
            best.wall_ms = wall_ms;
        }
    }
    best.events_per_sec =
        static_cast<double>(best.events) / (best.wall_ms / 1000.0);
    best.ns_per_event = 1e9 / best.events_per_sec;
    return best;
}

struct EngineRun
{
    std::string policy;
    double scale = 1.0;
    std::uint64_t requests = 0;
    std::uint64_t events = 0;
    double wall_ms = 0.0;
    double events_per_sec = 0.0;
};

EngineRun
measureEngine(const std::string &policy, double scale,
              const trace::Trace &workload, int reps)
{
    EngineRun run;
    run.policy = policy;
    run.scale = scale;
    run.requests = workload.requestCount();

    // Best-of-N, like the queue section: engines are deterministic, so
    // the fastest rep is the least-perturbed measurement of the same
    // work.
    for (int rep = 0; rep < reps; ++rep) {
        core::EngineConfig config = defaultConfig();
        core::Engine engine(workload, config,
                            policies::makePolicy(policy, config));
        const auto started = std::chrono::steady_clock::now();
        engine.run();
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - started)
                .count();
        if (rep == 0 || wall_ms < run.wall_ms) {
            run.wall_ms = wall_ms;
            run.events = engine.eventsExecuted();
        }
    }
    run.events_per_sec =
        static_cast<double>(run.events) / (run.wall_ms / 1000.0);
    return run;
}

struct ShardRun
{
    unsigned shards = 1;
    bool pinned = false; //!< shard workers pinned to physical cores
    std::uint64_t events = 0;
    double wall_ms = 0.0;
    double events_per_sec = 0.0;
    double speedup = 1.0; //!< vs the 1-thread run of the same model
};

/**
 * One partitioned trial (shard_cells cells, cidre policy) executed
 * with @p shards threads, best-of-N.  The pool is built once per call:
 * its spawn cost is amortized across reps exactly as ExperimentRunner
 * amortizes it across trials.  @p pin_cpus (may be empty) pins shard
 * workers exactly as the CLI's --pin would; results are bit-identical
 * either way, only the wall clock moves.
 */
ShardRun
measureShardedTrial(const trace::Trace &workload, std::uint32_t cells,
                    unsigned shards, const std::vector<int> &pin_cpus,
                    int reps)
{
    core::EngineConfig config = defaultConfig(100, cells);
    config.shard_cells = cells;

    ShardRun run;
    run.shards = shards;
    sim::ThreadPool pool(shards, pin_cpus);
    for (int rep = 0; rep < reps; ++rep) {
        core::ShardedEngine engine(
            workload, config, [](const core::EngineConfig &cell_config) {
                return policies::makePolicy("cidre", cell_config);
            });
        const auto started = std::chrono::steady_clock::now();
        engine.run(shards > 1 ? &pool : nullptr);
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - started)
                .count();
        if (rep == 0 || wall_ms < run.wall_ms) {
            run.wall_ms = wall_ms;
            run.events = engine.eventsExecuted();
        }
    }
    run.events_per_sec =
        static_cast<double>(run.events) / (run.wall_ms / 1000.0);
    return run;
}

struct TraceLoadRun
{
    std::uint64_t requests = 0;
    std::uint64_t functions = 0;
    std::uint64_t csv_bytes = 0;
    std::uint64_t image_bytes = 0;
    double csv_parse_ms = 0.0;
    double csv_parse_mb_per_sec = 0.0;
    double csv_parse_requests_per_sec = 0.0;
    double convert_ms = 0.0; //!< CSV-equivalent trace -> .ctrb on disk
    double image_open_ms = 0.0;
    double image_open_mb_per_sec = 0.0;
    double speedup_vs_csv = 0.0; //!< csv_parse_ms / image_open_ms
};

/**
 * CSV parse vs mmap open over the same workload, best-of-N each.  The
 * image open includes full validation (the checksum sweep touches
 * every payload byte), so both sides deliver the same guarantee: a
 * ready-to-replay, trusted trace.
 */
TraceLoadRun
measureTraceLoad(const trace::Trace &workload, int reps)
{
    namespace fs = std::filesystem;
    const std::string csv_path =
        (fs::temp_directory_path() / "cidre_bench_trace_load.csv")
            .string();
    const std::string image_path =
        (fs::temp_directory_path() / "cidre_bench_trace_load.ctrb")
            .string();

    TraceLoadRun run;
    run.requests = workload.requestCount();
    run.functions = workload.functionCount();

    trace::writeTraceFile(workload, csv_path);
    run.csv_bytes = fs::file_size(csv_path);

    {
        const auto started = std::chrono::steady_clock::now();
        trace::writeTraceImageFile(workload, image_path);
        run.convert_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - started)
                             .count();
    }
    run.image_bytes = fs::file_size(image_path);

    for (int rep = 0; rep < reps; ++rep) {
        const auto started = std::chrono::steady_clock::now();
        const trace::Trace parsed = trace::readTraceFile(csv_path);
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - started)
                .count();
        if (parsed.requestCount() != run.requests)
            std::abort(); // defeats dead-code elimination, too
        if (rep == 0 || wall_ms < run.csv_parse_ms)
            run.csv_parse_ms = wall_ms;
    }

    for (int rep = 0; rep < reps; ++rep) {
        const auto started = std::chrono::steady_clock::now();
        const trace::TraceImage image = trace::TraceImage::open(image_path);
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - started)
                .count();
        if (image.requestCount() != run.requests)
            std::abort();
        if (rep == 0 || wall_ms < run.image_open_ms)
            run.image_open_ms = wall_ms;
    }

    run.csv_parse_mb_per_sec = static_cast<double>(run.csv_bytes) / 1e6 /
        (run.csv_parse_ms / 1000.0);
    run.csv_parse_requests_per_sec = static_cast<double>(run.requests) /
        (run.csv_parse_ms / 1000.0);
    run.image_open_mb_per_sec = static_cast<double>(run.image_bytes) /
        1e6 / (run.image_open_ms / 1000.0);
    run.speedup_vs_csv = run.csv_parse_ms / run.image_open_ms;

    std::remove(csv_path.c_str());
    std::remove(image_path.c_str());
    return run;
}

} // namespace
} // namespace cidre::bench

int
main(int argc, char **argv)
{
    using namespace cidre;
    using namespace cidre::bench;

    // Peel --out / --smoke (specific to this binary) before the shared
    // parser.  --smoke runs only the engine section at scale 0.25 — the
    // CI regression gate (tools/check_bench_regression.py).
    std::string out_path = "BENCH_core.json";
    bool smoke = false;
    sim::PinMode pin_mode = sim::PinMode::Auto;
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
        if (std::string(argv[i]) == "--pin" && i + 1 < argc) {
            try {
                pin_mode = sim::parsePinMode(argv[i + 1]);
            } catch (const std::invalid_argument &) {
                std::cerr << "bench_core_throughput: bad --pin value '"
                          << argv[i + 1] << "' (want auto|off|physical)\n";
                return 1;
            }
            ++i;
            continue;
        }
        rest.push_back(argv[i]);
    }
    const Options options = parseOptions(
        static_cast<int>(rest.size()), rest.data(),
        "bench_core_throughput",
        "event-queue and engine throughput "
        "(also: --out <json-path>, --smoke, --pin auto|off|physical)");

    banner("Core simulation throughput",
           "the hot-path budget behind every figure");

    // The 200-function reference trace: the azure-like preset trimmed to
    // 200 functions, at the shared --seed (42 unless overridden).
    trace::SyntheticSpec spec = trace::azureLikeSpec();
    spec.functions = 200;
    const trace::Trace reference = trace::generate(spec, options.seed);

    std::cout << "reference trace: " << reference.functionCount()
              << " functions, " << reference.requestCount()
              << " requests, seed " << options.seed << "\n\n";

    // Peak RSS is sampled after each section; the probe is
    // process-monotone, so each sample is the high-water mark up to and
    // including that section (the per-size isolation lives in
    // bench_out_of_core, which forks one process per measurement).
    const int reps = 5;
    QueueRun heap;
    std::int64_t rss_queue_mb = -1;
    if (!smoke) {
        std::cerr << "[bench] replaying event stream through the queue ("
                  << reps << " reps, best kept)...\n";
        heap = measureQueue(reference, reps);

        stats::Table queue_table({"queue", "events", "wall_ms",
                                  "events_per_sec", "ns_per_event"});
        queue_table.addRow({"heap", std::to_string(heap.events),
                            stats::formatFixed(heap.wall_ms, 1),
                            stats::formatFixed(heap.events_per_sec, 0),
                            stats::formatFixed(heap.ns_per_event, 1)});
        emit(options, "core_throughput_queue", queue_table);
        rss_queue_mb = exp::peakRssMb();
    }

    // Engine end-to-end: events/sec across policies and trace scales.
    const std::vector<std::string> policies = {"ttl", "faascache", "cidre"};
    const std::vector<double> scales =
        smoke ? std::vector<double>{0.25}
              : std::vector<double>{0.25, 0.5, 1.0};
    const int engine_reps = 5;
    std::vector<EngineRun> engine_runs;
    stats::Table engine_table({"policy", "scale", "requests", "events",
                               "wall_ms", "events_per_sec"});
    for (const double scale : scales) {
        const trace::Trace workload =
            trace::makeAzureLikeTrace(options.seed, scale * options.scale);
        for (const std::string &policy : policies) {
            std::cerr << "[bench] engine " << policy << " @ scale "
                      << scale << "...\n";
            engine_runs.push_back(
                measureEngine(policy, scale, workload, engine_reps));
            const EngineRun &run = engine_runs.back();
            engine_table.addRow(
                {run.policy, stats::formatFixed(run.scale, 2),
                 std::to_string(run.requests), std::to_string(run.events),
                 stats::formatFixed(run.wall_ms, 1),
                 stats::formatFixed(run.events_per_sec, 0)});
        }
    }
    emit(options, "core_throughput_engine", engine_table);
    const std::int64_t rss_engine_mb = exp::peakRssMb();

    // Intra-trial shard scaling: one large 4-cell trial, 1/2/4 shard
    // threads.  Results are bit-identical across the three runs (pinned
    // by test_sharded); only the wall clock moves.  The detected CPU
    // topology is printed and recorded in the JSON so the speedup can be
    // judged against *physical* parallelism, not hw_threads: the gate in
    // tools/check_bench_regression.py only applies when physical_cores
    // exceeds the shard count.
    const unsigned hw_threads = std::thread::hardware_concurrency();
    const sim::CpuTopology topology = sim::CpuTopology::detect();
    const std::uint32_t shard_cells = 4;
    const double shard_scale = (smoke ? 0.25 : 1.0) * options.scale;
    const trace::Trace shard_workload =
        trace::makeAzureLikeTrace(options.seed, shard_scale);
    const int shard_reps = smoke ? 3 : 5;
    std::cout << "topology: " << topology.physicalCores()
              << " physical core(s), " << hw_threads << " hw thread(s), "
              << topology.packages() << " socket(s), "
              << topology.numaNodes() << " NUMA node(s), SMT "
              << (topology.smt() ? "on" : "off") << ", pin mode "
              << sim::pinModeName(pin_mode) << "\n";
    std::vector<ShardRun> shard_runs;
    bool any_pinned = false;
    stats::Table shard_table({"shards", "pinned", "events", "wall_ms",
                              "events_per_sec", "speedup"});
    for (const unsigned shards : {1u, 2u, 4u}) {
        const std::vector<int> pin_cpus =
            shards > 1 ? sim::resolvePinCpus(pin_mode, topology, shards)
                       : std::vector<int>{};
        any_pinned = any_pinned || !pin_cpus.empty();
        std::cerr << "[bench] sharded trial (" << shard_cells
                  << " cells) with " << shards << " thread(s)"
                  << (pin_cpus.empty() ? "" : ", pinned") << "...\n";
        ShardRun run = measureShardedTrial(shard_workload, shard_cells,
                                           shards, pin_cpus, shard_reps);
        run.pinned = !pin_cpus.empty();
        if (!shard_runs.empty())
            run.speedup = shard_runs.front().wall_ms / run.wall_ms;
        shard_runs.push_back(run);
        shard_table.addRow({std::to_string(run.shards),
                            run.pinned ? "yes" : "no",
                            std::to_string(run.events),
                            stats::formatFixed(run.wall_ms, 1),
                            stats::formatFixed(run.events_per_sec, 0),
                            stats::formatFixed(run.speedup, 2)});
    }
    emit(options, "core_throughput_shard_scaling", shard_table);
    const std::int64_t rss_shard_mb = exp::peakRssMb();
    std::cout << "shard speedup at 4 threads: "
              << stats::formatFixed(shard_runs.back().speedup, 2)
              << "x (physical cores: " << topology.physicalCores()
              << ", hardware threads: " << hw_threads << ")\n";

    // Trace loading: CSV parse vs `.ctrb` mmap open.  ~1M requests at
    // the default seed/scale; --smoke shrinks the trace, which shrinks
    // the absolute times but not the shape of the comparison.
    const double load_scale = (smoke ? 0.25 : 1.75) * options.scale;
    std::cerr << "[bench] generating trace-load workload (scale "
              << load_scale << ")...\n";
    const trace::Trace load_workload =
        trace::makeAzureLikeTrace(options.seed, load_scale);
    std::cerr << "[bench] trace load: CSV parse vs mmap open ("
              << load_workload.requestCount() << " requests)...\n";
    const TraceLoadRun load =
        measureTraceLoad(load_workload, smoke ? 3 : 5);
    stats::Table load_table(
        {"requests", "csv_mb", "ctrb_mb", "csv_parse_ms", "csv_mb_per_s",
         "csv_req_per_s", "convert_ms", "mmap_open_ms", "speedup"});
    load_table.addRow(
        {std::to_string(load.requests),
         stats::formatFixed(static_cast<double>(load.csv_bytes) / 1e6, 1),
         stats::formatFixed(static_cast<double>(load.image_bytes) / 1e6,
                            1),
         stats::formatFixed(load.csv_parse_ms, 1),
         stats::formatFixed(load.csv_parse_mb_per_sec, 0),
         stats::formatFixed(load.csv_parse_requests_per_sec, 0),
         stats::formatFixed(load.convert_ms, 1),
         stats::formatFixed(load.image_open_ms, 2),
         stats::formatFixed(load.speedup_vs_csv, 1)});
    emit(options, "core_throughput_trace_load", load_table);
    const std::int64_t rss_load_mb = exp::peakRssMb();
    std::cout << "mmap open vs CSV parse: "
              << stats::formatFixed(load.speedup_vs_csv, 1) << "x\n";

    // Policy scaling: how wall time grows as the trace grows.  With
    // per-decision cost independent of cluster/window size, the
    // wall-time ratio across a 4x trace-scale span stays near the event
    // ratio (~4.3x) instead of ballooning superlinearly.
    stats::Table scaling_table(
        {"policy", "wall_ms_025", "wall_ms_100", "wall_ratio",
         "events_per_sec_100"});
    struct ScalingRow
    {
        std::string policy;
        double wall_025 = 0.0;
        double wall_100 = 0.0;
        double ratio = 0.0;
        double eps_100 = 0.0;
    };
    std::vector<ScalingRow> scaling_rows;
    if (!smoke) {
        for (const std::string &policy : policies) {
            ScalingRow row;
            row.policy = policy;
            for (const EngineRun &run : engine_runs) {
                if (run.policy != policy)
                    continue;
                if (run.scale == 0.25)
                    row.wall_025 = run.wall_ms;
                if (run.scale == 1.0) {
                    row.wall_100 = run.wall_ms;
                    row.eps_100 = run.events_per_sec;
                }
            }
            row.ratio = row.wall_025 > 0.0 ? row.wall_100 / row.wall_025
                                           : 0.0;
            scaling_rows.push_back(row);
            scaling_table.addRow(
                {row.policy, stats::formatFixed(row.wall_025, 1),
                 stats::formatFixed(row.wall_100, 1),
                 stats::formatFixed(row.ratio, 2),
                 stats::formatFixed(row.eps_100, 0)});
        }
        emit(options, "core_throughput_policy_scaling", scaling_table);
    }

    std::ofstream json(out_path);
    if (!json) {
        std::cerr << "bench_core_throughput: cannot write " << out_path
                  << "\n";
        return 1;
    }
    json.precision(1);
    json.setf(std::ios::fixed);
    json << "{\n"
         << "  \"bench\": \"bench_core_throughput\",\n"
         << "  \"build\": \"" << buildInfo() << "\",\n"
         << "  \"seed\": " << options.seed << ",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"reference_trace\": {\"functions\": "
         << reference.functionCount() << ", \"requests\": "
         << reference.requestCount() << "},\n";
    if (!smoke) {
        json << "  \"queue\": {\n"
             << "    \"heap\": {\"events\": " << heap.events
             << ", \"wall_ms\": " << heap.wall_ms
             << ", \"events_per_sec\": " << heap.events_per_sec
             << ", \"ns_per_event\": " << heap.ns_per_event << "},\n"
             << "    \"peak_rss_mb\": " << rss_queue_mb << "\n  },\n";
    }
    json << "  \"engine\": [\n";
    for (std::size_t i = 0; i < engine_runs.size(); ++i) {
        const EngineRun &run = engine_runs[i];
        json.precision(2);
        json << "    {\"policy\": \"" << run.policy << "\", \"scale\": "
             << run.scale << ", \"requests\": " << run.requests
             << ", \"events\": " << run.events;
        json.precision(1);
        json << ", \"wall_ms\": " << run.wall_ms
             << ", \"events_per_sec\": " << run.events_per_sec << "}"
             << (i + 1 < engine_runs.size() ? "," : "") << "\n";
    }
    json << "  ],\n";
    json << "  \"engine_peak_rss_mb\": " << rss_engine_mb << ",\n";
    json << "  \"shard_scaling\": {\n"
         << "    \"hw_threads\": " << hw_threads << ",\n"
         << "    \"physical_cores\": " << topology.physicalCores() << ",\n"
         << "    \"smt\": " << (topology.smt() ? "true" : "false") << ",\n"
         << "    \"numa_nodes\": " << topology.numaNodes() << ",\n"
         << "    \"sockets\": " << topology.packages() << ",\n"
         << "    \"pin\": \"" << sim::pinModeName(pin_mode) << "\",\n"
         << "    \"pinned\": " << (any_pinned ? "true" : "false") << ",\n"
         << "    \"cells\": " << shard_cells << ",\n"
         << "    \"policy\": \"cidre\",\n";
    json.precision(2);
    json << "    \"scale\": " << shard_scale << ",\n"
         << "    \"runs\": [\n";
    for (std::size_t i = 0; i < shard_runs.size(); ++i) {
        const ShardRun &run = shard_runs[i];
        json << "      {\"shards\": " << run.shards << ", \"pinned\": "
             << (run.pinned ? "true" : "false")
             << ", \"events\": " << run.events;
        json.precision(1);
        json << ", \"wall_ms\": " << run.wall_ms
             << ", \"events_per_sec\": " << run.events_per_sec;
        json.precision(2);
        json << ", \"speedup\": " << run.speedup << "}"
             << (i + 1 < shard_runs.size() ? "," : "") << "\n";
    }
    json << "    ],\n"
         << "    \"speedup_4\": " << shard_runs.back().speedup << ",\n"
         << "    \"peak_rss_mb\": " << rss_shard_mb << "\n"
         << "  },\n";
    json.precision(1);
    json << "  \"trace_load\": {\n"
         << "    \"requests\": " << load.requests << ",\n"
         << "    \"functions\": " << load.functions << ",\n"
         << "    \"csv_bytes\": " << load.csv_bytes << ",\n"
         << "    \"image_bytes\": " << load.image_bytes << ",\n"
         << "    \"csv_parse_ms\": " << load.csv_parse_ms << ",\n"
         << "    \"csv_parse_mb_per_sec\": " << load.csv_parse_mb_per_sec
         << ",\n"
         << "    \"csv_parse_requests_per_sec\": "
         << load.csv_parse_requests_per_sec << ",\n"
         << "    \"convert_ms\": " << load.convert_ms << ",\n";
    json.precision(3);
    json << "    \"image_open_ms\": " << load.image_open_ms << ",\n";
    json.precision(1);
    json << "    \"image_open_mb_per_sec\": " << load.image_open_mb_per_sec
         << ",\n"
         << "    \"speedup_vs_csv\": " << load.speedup_vs_csv << ",\n"
         << "    \"peak_rss_mb\": " << rss_load_mb << "\n"
         << "  }";
    if (!smoke) {
        json << ",\n  \"policy_scaling\": [\n";
        for (std::size_t i = 0; i < scaling_rows.size(); ++i) {
            const ScalingRow &row = scaling_rows[i];
            json.precision(1);
            json << "    {\"policy\": \"" << row.policy
                 << "\", \"wall_ms_025\": " << row.wall_025
                 << ", \"wall_ms_100\": " << row.wall_100;
            json.precision(2);
            json << ", \"wall_ratio\": " << row.ratio;
            json.precision(1);
            json << ", \"events_per_sec_100\": " << row.eps_100 << "}"
                 << (i + 1 < scaling_rows.size() ? "," : "") << "\n";
        }
        json << "  ]";
    }
    json << ",\n  \"peak_rss_mb\": " << exp::peakRssMb();
    json << "\n}\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}

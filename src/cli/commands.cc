#include "cli/commands.h"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include <fstream>
#include <iomanip>

#include "analysis/concurrency.h"
#include "analysis/opportunity.h"
#include "analysis/tradeoff.h"
#include "core/checkpoint.h"
#include "core/metrics_io.h"
#include "core/sharded_engine.h"
#include "exp/runner.h"
#include "exp/telemetry.h"
#include "live/ingest_ring.h"
#include "live/orchestrator.h"
#include "live/producer.h"
#include "sim/serialize.h"
#include "sim/thread_pool.h"
#include "sim/topology.h"
#include "policies/registry.h"
#include "sim/rng.h"
#include "stats/table.h"
#include "trace/generators.h"
#include "trace/replay_window.h"
#include "trace/trace_image.h"
#include "trace/trace_io.h"
#include "trace/trace_view.h"
#include "trace/transforms.h"
#include "tune/evaluator.h"
#include "tune/pareto.h"
#include "tune/search.h"
#include "tune/space.h"

namespace cidre::cli {

namespace {

/** Shared workload options: either --trace <file> or --kind azure|fc. */
const std::vector<OptionSpec> kWorkloadSpecs = {
    {"trace", "file", "load a trace (CSV or .ctrb image, by content)", ""},
    {"kind", "azure|fc", "synthesize a workload instead", "azure"},
    {"scale", "f", "synthetic volume multiplier", "1.0"},
    {"seed", "n", "synthetic trace seed", "42"},
    {"iat", "f", "stretch inter-arrival times by f", "1.0"},
    {"exec-scale", "f", "scale execution times by f", "1.0"},
};

void
appendWorkloadSpecs(std::vector<OptionSpec> &specs)
{
    specs.insert(specs.end(), kWorkloadSpecs.begin(),
                 kWorkloadSpecs.end());
}

std::uint64_t
baseSeed(const Options &options)
{
    return static_cast<std::uint64_t>(options.getInt("seed", 42));
}

/**
 * A loaded workload: either an owned in-memory trace or a shared mmapped
 * trace image.  view() is computed on demand so the holder stays safe to
 * move/copy (a cached view would dangle once the Trace relocates).
 */
struct Workload
{
    trace::Trace trace;
    std::shared_ptr<const trace::TraceImage> image;

    trace::TraceView view() const
    {
        return image ? image->view() : trace::TraceView(trace);
    }
};

/** Load the workload, synthesizing from @p seed when not a trace file. */
Workload
loadWorkloadWithSeed(const Options &options, std::uint64_t seed,
                     trace::TraceOpenMode mode = trace::TraceOpenMode::Resident)
{
    Workload workload;
    if (options.has("trace")) {
        const std::string path = options.getString("trace");
        if (trace::isTraceImageFile(path)) {
            workload.image = std::make_shared<const trace::TraceImage>(
                trace::TraceImage::open(path, mode));
        } else {
            workload.trace = trace::readTraceFile(path);
        }
    } else {
        const std::string kind = options.getString("kind", "azure");
        const double scale = options.getDouble("scale", 1.0);
        if (kind == "azure") {
            workload.trace = trace::makeAzureLikeTrace(seed, scale);
        } else if (kind == "fc") {
            workload.trace = trace::makeFcLikeTrace(seed, scale);
        } else {
            throw std::invalid_argument("--kind must be azure or fc");
        }
    }
    // Transforms materialize an in-memory trace, so an image-backed
    // workload loses its zero-copy backing only when actually reshaped.
    const double iat = options.getDouble("iat", 1.0);
    if (iat != 1.0) {
        workload.trace = trace::scaleIat(workload.view(), iat);
        workload.image.reset();
    }
    const double exec_scale = options.getDouble("exec-scale", 1.0);
    if (exec_scale != 1.0) {
        workload.trace = trace::scaleExec(workload.view(), exec_scale);
        workload.image.reset();
    }
    return workload;
}

Workload
loadWorkload(const Options &options,
             trace::TraceOpenMode mode = trace::TraceOpenMode::Resident)
{
    return loadWorkloadWithSeed(options, baseSeed(options), mode);
}

/** Parallelism knobs shared by `run`, `compare` and `tune`. */
const std::vector<OptionSpec> kParallelSpecs = {
    {"jobs", "n", "total worker threads (0 = all cores)", "0"},
    {"shards", "n", "threads per sharded trial (results-neutral; needs"
                    " --cells > 1)", "1"},
    {"pin", "mode", "shard-worker CPU pinning: auto|off|physical"
                    " (results-neutral)", "auto"},
    {"progress", "", "per-trial telemetry on stderr", ""},
};

void
appendParallelSpecs(std::vector<OptionSpec> &specs)
{
    specs.insert(specs.end(), kParallelSpecs.begin(), kParallelSpecs.end());
}

/** Sweep knobs of `run` and `compare`: --trials, then parallelism. */
void
appendSweepSpecs(std::vector<OptionSpec> &specs)
{
    specs.push_back({"trials", "n", "independent trials (seed substreams)",
                     "1"});
    appendParallelSpecs(specs);
}

exp::RunnerOptions
runnerOptions(const Options &options, std::ostream &err)
{
    exp::RunnerOptions runner;
    runner.jobs = static_cast<unsigned>(options.getInt("jobs", 0));
    runner.shards = static_cast<unsigned>(options.getInt("shards", 1));
    runner.progress = options.getFlag("progress") ? &err : nullptr;
    runner.pin = sim::parsePinMode(options.getString("pin", "auto"));
    return runner;
}

/**
 * The workloads of an n-trial sweep.  One trial replays the loaded
 * workload; n synthetic trials replay per-trial traces generated from
 * seed substreams — trial i is the workload of
 * substreamSeed(base_seed, i), generated in parallel but fully
 * determined by (base_seed, i).  A trace file is rejected for n > 1:
 * every trial would replay the same trace to the same metrics.
 */
std::vector<Workload>
loadTrialWorkloads(const Options &options, std::uint64_t trials,
                   unsigned jobs)
{
    if (trials > 1 && options.has("trace")) {
        throw std::invalid_argument(
            "--trials > 1 needs a synthetic workload (--kind): every"
            " trial of one --trace replays the same requests to the same"
            " metrics");
    }
    std::vector<Workload> workloads(trials);
    if (trials == 1) {
        workloads[0] = loadWorkload(options);
        return workloads;
    }
    const std::uint64_t base = baseSeed(options);
    exp::parallelFor(jobs, trials, [&](std::size_t i) {
        workloads[i] = loadWorkloadWithSeed(
            options, sim::substreamSeed(base, i));
    });
    return workloads;
}

core::EngineConfig
engineConfig(const Options &options)
{
    core::EngineConfig config;
    config.cluster.workers = static_cast<std::uint32_t>(
        options.getInt("workers", 3));
    config.cluster.total_memory_mb =
        options.getInt("cache-gb", 100) * 1024;
    config.container_threads = static_cast<std::uint32_t>(
        options.getInt("threads", 1));
    config.te_percentile = options.getDouble("te-percentile", 0.5);
    const std::int64_t window_min = options.getInt("window-min", 15);
    config.stats_window = window_min <= 0 ? sim::kTimeInfinity
                                          : sim::minutes(window_min);
    // "--cells auto" is a placement decision, not a number: it needs
    // the workload and the machine, so it is resolved by the command
    // (resolveAutoCells) once the trace is loaded.  Until then the
    // config carries the valid provisional value 1.
    config.shard_cells = options.getString("cells", "1") == "auto"
        ? 1
        : static_cast<std::uint32_t>(options.getInt("cells", 1));
    config.validate();
    return config;
}

/**
 * Resolve `--cells auto` against the loaded workload and the detected
 * topology (core::autoCellCount), recording the decision in
 * config.shard_cells and announcing it on @p err — the recorded count
 * is what makes the run reproducible elsewhere (rerun with
 * `--cells N`).  Explicit `--cells N` passes through untouched.
 */
void
resolveAutoCells(const Options &options, trace::TraceView workload,
                 core::EngineConfig &config, unsigned shards,
                 std::ostream &err)
{
    if (options.getString("cells", "1") != "auto")
        return;
    const auto topology = sim::CpuTopology::detect();
    config.shard_cells = core::autoCellCount(workload, config,
                                             std::max(1u, shards),
                                             topology);
    config.validate();
    err << "cells auto: " << config.shard_cells << " (physical cores "
        << topology.physicalCores() << ", shards "
        << std::max(1u, shards) << "; rerun with --cells "
        << config.shard_cells << " to reproduce)\n";
}

const std::vector<OptionSpec> kEngineSpecs = {
    {"workers", "n", "cluster worker count", "3"},
    {"cache-gb", "n", "aggregate keep-alive memory", "100"},
    {"threads", "n", "intra-container request slots", "1"},
    {"te-percentile", "q", "CSS T_e percentile (<0 = mean)", "0.5"},
    {"window-min", "n", "CSS history window minutes (<=0 = all)", "15"},
    {"cells", "n|auto", "partition the cluster into n independent cells"
                        " (model parameter; auto = plan from trace size,"
                        " workers and detected topology)", "1"},
};

void
appendEngineSpecs(std::vector<OptionSpec> &specs)
{
    specs.insert(specs.end(), kEngineSpecs.begin(), kEngineSpecs.end());
}

/** Policy factory over the registry: every cell gets a fresh bundle. */
core::ShardedEngine::PolicyFactory
registryPolicy(const std::string &policy)
{
    return [policy](const core::EngineConfig &cell_config) {
        return policies::makePolicy(policy, cell_config);
    };
}

/**
 * The sweep of `run --trials N` and `compare`: every policy × trial
 * pair is one independent simulation, fanned across the runner's
 * pools.  Returns each policy's trials folded in trial order, so the
 * output is byte-identical for any --jobs/--shards value.
 */
std::vector<core::RunMetrics>
runSweep(const Options &options, const std::vector<std::string> &policies,
         std::uint64_t trials, core::EngineConfig config,
         const exp::RunnerOptions &runner_options, std::ostream &err)
{
    const std::vector<Workload> workloads =
        loadTrialWorkloads(options, trials, runner_options.jobs);
    resolveAutoCells(options, workloads[0].view(), config,
                     runner_options.shards, err);
    if (config.shard_cells > 1) {
        for (const Workload &workload : workloads)
            if (workload.image)
                workload.image->adviseShardedGather();
    }
    std::vector<exp::TrialSpec> specs;
    specs.reserve(policies.size() * trials);
    for (const std::string &policy : policies) {
        for (std::uint64_t i = 0; i < trials; ++i) {
            exp::TrialSpec spec;
            spec.label = policy + "/t" + std::to_string(i);
            spec.workload = workloads[i].view();
            spec.policy = policy;
            spec.config = config;
            spec.base_seed = baseSeed(options);
            spec.trial_index = i;
            specs.push_back(std::move(spec));
        }
    }
    exp::ExperimentRunner runner(runner_options);
    std::vector<exp::TrialResult> results = runner.run(specs);
    std::vector<core::RunMetrics> merged;
    for (std::size_t p = 0; p < policies.size(); ++p) {
        const auto first =
            std::make_move_iterator(results.begin() + p * trials);
        merged.push_back(exp::mergedMetrics({first, first + trials}));
    }
    return merged;
}

// ---- stepped replay (out-of-core streaming + checkpoint/restore) --------

/** Width of one `run --timeline` bucket, in simulated time. */
constexpr sim::SimTime kTimelineBucket = sim::sec(10);

/**
 * The `run` knobs that give the stepped driver boundaries to stop at:
 * windowed streaming replay, periodic checkpoints, resume, early stop
 * and the `--timeline` marks.  All of them are results-neutral — the
 * stepped loop's step boundaries never change metrics (pinned by the
 * golden tests), so a resumed run is bit-identical to an uninterrupted
 * one.  With none set the driver runs the trial in one step.
 */
struct SteppedKnobs
{
    sim::SimTime stream_window = 0;  //!< 0 = no windowed advice
    std::string checkpoint_path;     //!< empty = never write
    sim::SimTime checkpoint_every = 0;
    std::string resume_path;         //!< empty = fresh run
    sim::SimTime stop_at = 0;        //!< 0 = run to completion
    bool timeline = false;           //!< sample every kTimelineBucket

    bool enabled() const
    {
        return stream_window > 0 || !checkpoint_path.empty() ||
               !resume_path.empty() || stop_at > 0;
    }
};

SteppedKnobs
steppedKnobs(const Options &options)
{
    const std::int64_t window_sec = options.getInt("stream-window-sec", 0);
    const std::int64_t every_sec =
        options.getInt("checkpoint-every-sec", 0);
    const std::int64_t stop_sec = options.getInt("stop-at-sec", 0);
    if (window_sec < 0 || every_sec < 0 || stop_sec < 0) {
        throw std::invalid_argument(
            "run: --stream-window-sec/--checkpoint-every-sec/--stop-at-sec"
            " must be >= 0");
    }
    SteppedKnobs knobs;
    knobs.stream_window = sim::sec(window_sec);
    knobs.checkpoint_every = sim::sec(every_sec);
    knobs.stop_at = sim::sec(stop_sec);
    knobs.checkpoint_path = options.getString("checkpoint");
    knobs.resume_path = options.getString("resume-from");
    knobs.timeline = options.getFlag("timeline");
    if (knobs.checkpoint_path.empty() &&
        (knobs.checkpoint_every > 0 || knobs.stop_at > 0)) {
        throw std::invalid_argument(
            "run: --checkpoint-every-sec/--stop-at-sec need --checkpoint"
            " <file>");
    }
    if (!knobs.checkpoint_path.empty() && knobs.checkpoint_every == 0 &&
        knobs.stop_at == 0) {
        throw std::invalid_argument(
            "run: --checkpoint needs --checkpoint-every-sec and/or"
            " --stop-at-sec (a checkpoint is written at those boundaries)");
    }
    return knobs;
}

/** The `run --timeline` rows: one value per kTimelineBucket mark. */
struct TimelineRows
{
    std::vector<double> memory_mb;     //!< occupancy at the mark
    std::vector<double> cold_starts;   //!< since the previous mark
    std::vector<double> delayed_warms; //!< since the previous mark
};

struct SteppedOutcome
{
    /** True when --stop-at-sec ended the run before the trace drained. */
    bool stopped_early = false;
    sim::SimTime stop_time = 0;
    core::RunMetrics metrics;
    TimelineRows timeline; //!< empty unless SteppedKnobs::timeline
};

/** What a `--timeline` mark reads, summed over every cell. */
struct TimelineTotals
{
    std::uint64_t cold_starts = 0;   //!< cumulative
    std::uint64_t delayed_warms = 0; //!< cumulative
    std::int64_t used_mb = 0;        //!< occupancy now
};

TimelineTotals
timelineTotals(core::ShardedEngine &engine)
{
    TimelineTotals totals;
    engine.forEachCell([&totals](core::Engine &cell, std::uint32_t) {
        const core::RunMetrics &metrics = cell.metrics();
        totals.cold_starts += metrics.count(core::StartType::Cold);
        totals.delayed_warms += metrics.count(core::StartType::DelayedWarm);
        totals.used_mb += cell.clusterRef().totalUsedMb();
    });
    return totals;
}

/**
 * Run one trial through the stepped driver, cells on a `--shards` pool
 * pinned per `--pin`.  The loop steps the engine to the next enabled
 * boundary — window advice, periodic checkpoint, timeline mark, or
 * --stop-at-sec — in simulated-time order; boundaries are absolute
 * multiples of their cadence, so a resumed run visits exactly the
 * boundaries the uninterrupted run would have.  Timeline counts are
 * deltas from the state begin()/loadState() left, so a resumed run's
 * rows start at the resume point.
 */
SteppedOutcome
driveSteppedTrial(const SteppedKnobs &knobs, const std::string &policy,
                  const core::EngineConfig &config, const Workload &workload,
                  const exp::RunnerOptions &runner_options,
                  std::ostream &err)
{
    const trace::TraceView view = workload.view();
    const std::uint64_t fingerprint =
        core::checkpointFingerprint(config, policy, view);

    // The window advises along the mmapped image; an in-memory workload
    // (CSV or synthetic) has no pages to manage, so the knob is inert.
    std::optional<trace::ReplayWindow> window;
    if (knobs.stream_window > 0 && workload.image)
        window.emplace(*workload.image, knobs.stream_window);

    std::optional<sim::ThreadPool> pool;
    if (config.shard_cells > 1 && runner_options.shards > 1) {
        pool.emplace(runner_options.shards,
                     sim::resolvePinCpus(runner_options.pin,
                                         sim::CpuTopology::detect(),
                                         runner_options.shards));
    }
    sim::ThreadPool *pool_ptr = pool ? &*pool : nullptr;

    if (config.shard_cells > 1 && workload.image)
        workload.image->adviseShardedGather();
    core::ShardedEngine engine(view, config, registryPolicy(policy));

    // Restore preamble: the driver's simulated time, then the engine
    // state.  The fingerprint pins shard_cells, so the cell count in
    // the engine state always matches this configuration.
    sim::SimTime start_time = 0;
    if (knobs.resume_path.empty()) {
        engine.begin(pool_ptr);
    } else {
        const std::vector<std::byte> payload =
            core::readCheckpointFile(knobs.resume_path, fingerprint);
        sim::StateReader reader(payload);
        start_time = static_cast<sim::SimTime>(reader.get<std::uint64_t>());
        engine.loadState(reader);
    }
    if (knobs.stop_at > 0 && knobs.stop_at <= start_time) {
        throw std::invalid_argument(
            "run: --stop-at-sec must lie past the resume point");
    }

    const auto writeCkpt = [&](sim::SimTime now) {
        sim::StateWriter writer;
        writer.put<std::uint64_t>(static_cast<std::uint64_t>(now));
        engine.saveState(writer);
        core::writeCheckpointFile(
            knobs.checkpoint_path,
            core::makeCheckpointBuffer(fingerprint, writer.release()));
        err << "checkpoint @ " << sim::toSec(now) << " s -> "
            << knobs.checkpoint_path << "\n";
    };

    // Next boundary of each cadence: the smallest absolute multiple
    // strictly past the current position.
    const auto nextBoundary = [](sim::SimTime t, sim::SimTime cadence) {
        return (t / cadence + 1) * cadence;
    };
    sim::SimTime next_window = sim::kTimeInfinity;
    if (window) {
        window->advanceTo(start_time); // prefetch the opening window
        next_window = nextBoundary(start_time, knobs.stream_window);
    }
    sim::SimTime next_ckpt = knobs.checkpoint_every > 0
        ? nextBoundary(start_time, knobs.checkpoint_every)
        : sim::kTimeInfinity;
    sim::SimTime next_mark = sim::kTimeInfinity;
    TimelineTotals last_mark;
    if (knobs.timeline) {
        next_mark = nextBoundary(start_time, kTimelineBucket);
        last_mark = timelineTotals(engine);
    }

    SteppedOutcome outcome;
    for (;;) {
        sim::SimTime target = std::min({next_window, next_ckpt, next_mark});
        if (knobs.stop_at > 0)
            target = std::min(target, knobs.stop_at);
        if (target == sim::kTimeInfinity)
            break; // no cadence left: drain in one shot below
        engine.stepUntil(target, pool_ptr);
        if (window && target >= next_window) {
            window->advanceTo(target);
            next_window += knobs.stream_window;
        }
        if (target >= next_mark) {
            const TimelineTotals mark = timelineTotals(engine);
            TimelineRows &rows = outcome.timeline;
            rows.memory_mb.push_back(static_cast<double>(mark.used_mb));
            rows.cold_starts.push_back(static_cast<double>(
                mark.cold_starts - last_mark.cold_starts));
            rows.delayed_warms.push_back(static_cast<double>(
                mark.delayed_warms - last_mark.delayed_warms));
            last_mark = mark;
            next_mark += kTimelineBucket;
        }
        if (target >= next_ckpt) {
            writeCkpt(target);
            next_ckpt += knobs.checkpoint_every;
        }
        if (knobs.stop_at > 0 && target >= knobs.stop_at) {
            writeCkpt(target);
            outcome.stopped_early = true;
            outcome.stop_time = target;
            return outcome;
        }
        if (engine.drained())
            break;
    }
    outcome.metrics = engine.finish(pool_ptr);
    return outcome;
}

/**
 * The --max-rss-mb gate: report host peak RSS and fail the run when it
 * exceeds the budget.  This is what lets CI assert the out-of-core
 * contract (peak RSS tracks the window, not the trace).
 */
int
checkMaxRss(const Options &options, std::ostream &err)
{
    const std::int64_t budget_mb = options.getInt("max-rss-mb", 0);
    if (budget_mb <= 0)
        return 0;
    const std::int64_t rss_mb = exp::peakRssMb();
    if (rss_mb < 0) {
        err << "max-rss-mb: no peak-RSS probe on this platform; gate"
               " skipped\n";
        return 0;
    }
    err << "peak RSS " << rss_mb << " MB (budget " << budget_mb
        << " MB)\n";
    if (rss_mb > budget_mb) {
        err << "run: peak RSS exceeded the --max-rss-mb budget\n";
        return 1;
    }
    return 0;
}

void
reportRun(std::ostream &out, const std::string &policy,
          const core::RunMetrics &m)
{
    stats::Table table({"metric", "value"});
    const auto add = [&](const char *name, const std::string &value) {
        table.addRow({name, value});
    };
    add("requests", std::to_string(m.total()));
    add("avg overhead ratio %",
        stats::formatFixed(m.avgOverheadRatioPct(), 2));
    add("avg overhead ms", stats::formatFixed(m.avgOverheadMs(), 2));
    add("cold start %", stats::formatFixed(m.coldRatio() * 100.0, 2));
    add("delayed warm %",
        stats::formatFixed(m.delayedRatio() * 100.0, 2));
    add("warm start %", stats::formatFixed(m.warmRatio() * 100.0, 2));
    add("overhead p50/p99 ms",
        stats::formatFixed(m.overheadHistogram().percentile(0.5) / 1e3,
                           1) +
            " / " +
            stats::formatFixed(
                m.overheadHistogram().percentile(0.99) / 1e3, 1));
    add("E2E p50/p99 ms",
        stats::formatFixed(m.e2eHistogram().percentile(0.5) / 1e3, 1) +
            " / " +
            stats::formatFixed(m.e2eHistogram().percentile(0.99) / 1e3,
                               1));
    add("containers created", std::to_string(m.containers_created));
    add("evictions", std::to_string(m.evictions + m.expirations));
    add("wasted cold starts", std::to_string(m.wasted_cold_starts));
    add("avg/peak memory GB",
        stats::formatFixed(m.avgMemoryGb(), 1) + " / " +
            stats::formatFixed(m.peakMemoryGb(), 1));
    out << "policy: " << policy << "\n";
    table.print(out);
}

} // namespace

const std::vector<OptionSpec> &
generateSpecs()
{
    static const std::vector<OptionSpec> specs = [] {
        std::vector<OptionSpec> s = {
            {"out", "file", "output path, .csv or .ctrb (required)", ""},
        };
        appendWorkloadSpecs(s);
        return s;
    }();
    return specs;
}

int
runGenerate(const Options &options, std::ostream &out, std::ostream &)
{
    const std::string path = options.getString("out");
    if (path.empty())
        throw std::invalid_argument(
            "generate requires --out <file.csv|file.ctrb>");
    const Workload workload = loadWorkload(options);
    if (path.ends_with(".ctrb"))
        trace::writeTraceImageFile(workload.view(), path);
    else
        trace::writeTraceFile(workload.view(), path);
    const trace::TraceStats stats = workload.view().computeStats();
    out << "wrote " << stats.request_count << " requests ("
        << stats.function_count << " functions, "
        << stats::formatFixed(stats.rps_avg, 1) << " rps avg) to " << path
        << "\n";
    return 0;
}

const std::vector<OptionSpec> &
convertSpecs()
{
    static const std::vector<OptionSpec> specs = {};
    return specs;
}

int
runConvert(const Options &options, std::ostream &out, std::ostream &)
{
    const std::vector<std::string> &paths = options.positionals();
    if (paths.size() != 2) {
        throw std::invalid_argument(
            "convert needs exactly two paths: <input> <output>");
    }
    const std::string &in_path = paths[0];
    const std::string &out_path = paths[1];
    std::uint64_t requests = 0;
    std::uint64_t functions = 0;
    const char *direction = nullptr;
    if (trace::isTraceImageFile(in_path)) {
        // Binary -> CSV (debugging / interchange).
        const trace::TraceImage image = trace::TraceImage::open(in_path);
        trace::writeTraceFile(image.view(), out_path);
        requests = image.requestCount();
        functions = image.functionCount();
        direction = "ctrb -> csv";
    } else {
        // CSV -> binary: all seal()-time work (sorting, the per-function
        // arrival index) is paid here, once; replays then mmap the image.
        // Arrival-sorted CSVs stream straight through the incremental
        // writer, so conversion is bounded-memory at any trace size.
        const trace::CsvConvertStats stats =
            trace::convertTraceCsvToImage(in_path, out_path);
        requests = stats.requests;
        functions = stats.functions;
        direction = "csv -> ctrb";
    }
    out << "converted " << in_path << " (" << direction << "): "
        << requests << " requests, " << functions << " functions -> "
        << out_path << "\n";
    return 0;
}

const std::vector<OptionSpec> &
synthSpecs()
{
    static const std::vector<OptionSpec> specs = {
        {"out", "file", "output .ctrb image (required)", ""},
        {"copies", "n", "concatenate n time-shifted copies of the merged"
                        " inputs", "1"},
        {"gap-sec", "n", "idle simulated seconds between copies", "0"},
    };
    return specs;
}

int
runSynth(const Options &options, std::ostream &out, std::ostream &)
{
    const std::string out_path = options.getString("out");
    if (out_path.empty())
        throw std::invalid_argument("synth requires --out <file.ctrb>");
    const std::vector<std::string> &in_paths = options.positionals();
    if (in_paths.empty()) {
        throw std::invalid_argument(
            "synth needs at least one input .ctrb image (use `convert`"
            " for CSV traces first)");
    }
    const std::int64_t copies = options.getInt("copies", 1);
    if (copies < 1)
        throw std::invalid_argument("synth: --copies must be >= 1");
    const std::int64_t gap_sec = options.getInt("gap-sec", 0);
    if (gap_sec < 0)
        throw std::invalid_argument("synth: --gap-sec must be >= 0");

    // Open every input in streaming mode: the merge walks each image
    // front to back exactly once, so even large inputs never have to be
    // resident all at once — and the output goes through the streaming
    // writer, so the whole synthesis runs on a bounded heap.
    std::vector<trace::TraceImage> images;
    images.reserve(in_paths.size());
    for (const std::string &path : in_paths) {
        if (!trace::isTraceImageFile(path)) {
            throw std::invalid_argument("synth: " + path +
                                        " is not a .ctrb image");
        }
        images.push_back(
            trace::TraceImage::open(path, trace::TraceOpenMode::Streaming));
    }

    // Copies are time-shifted replicas sharing one function table, so
    // every input must declare the same profiles (ids are positional).
    const trace::TraceView first = images[0].view();
    for (std::size_t i = 1; i < images.size(); ++i) {
        const trace::TraceView other = images[i].view();
        bool same = other.functionCount() == first.functionCount();
        for (std::size_t f = 0; same && f < first.functionCount(); ++f) {
            const trace::FunctionProfile &a = first.functions()[f];
            const trace::FunctionProfile &b = other.functions()[f];
            same = a.name == b.name && a.memory_mb == b.memory_mb &&
                   a.cold_start_us == b.cold_start_us &&
                   a.runtime == b.runtime &&
                   a.median_exec_us == b.median_exec_us;
        }
        if (!same) {
            throw std::invalid_argument(
                "synth: " + in_paths[i] + " and " + in_paths[0] +
                " have different function tables");
        }
    }

    // Shape of the output: per-copy totals, and a period long enough
    // that consecutive copies never overlap in time.
    std::uint64_t per_copy = 0;
    sim::SimTime span = 0;
    std::vector<std::uint64_t> counts(first.functionCount(), 0);
    for (const trace::TraceImage &image : images) {
        const trace::TraceView view = image.view();
        per_copy += view.requestCount();
        span = std::max(span, view.duration());
        const std::vector<std::uint64_t> by_function =
            view.requestCountByFunction();
        for (std::size_t f = 0; f < counts.size(); ++f)
            counts[f] += by_function[f];
    }
    if (per_copy == 0)
        throw std::invalid_argument("synth: the inputs have no requests");
    const std::uint64_t total =
        per_copy * static_cast<std::uint64_t>(copies);
    for (std::uint64_t &count : counts)
        count *= static_cast<std::uint64_t>(copies);
    const sim::SimTime period = span + sim::sec(gap_sec) + 1;

    trace::TraceImageStreamWriter writer(out_path, first.functions(), total,
                                         counts);

    // Per copy: k-way merge of the inputs by arrival (ties to the lower
    // input index — a deterministic total order), shifted by the copy's
    // period multiple.
    std::vector<std::uint64_t> cursor(images.size());
    std::vector<trace::TraceView> views;
    views.reserve(images.size());
    for (const trace::TraceImage &image : images)
        views.push_back(image.view());
    for (std::int64_t copy = 0; copy < copies; ++copy) {
        const sim::SimTime shift = period * copy;
        std::fill(cursor.begin(), cursor.end(), 0);
        for (;;) {
            std::size_t best = images.size();
            sim::SimTime best_arrival = 0;
            for (std::size_t i = 0; i < views.size(); ++i) {
                if (cursor[i] >= views[i].requestCount())
                    continue;
                const sim::SimTime arrival =
                    views[i].arrivalUs(cursor[i]);
                if (best == images.size() || arrival < best_arrival) {
                    best = i;
                    best_arrival = arrival;
                }
            }
            if (best == images.size())
                break;
            const std::uint64_t row = cursor[best]++;
            writer.append(views[best].requestFunction(row),
                          best_arrival + shift,
                          views[best].execUs(row));
        }
    }
    writer.finish();

    out << "synthesized " << total << " requests ("
        << first.functionCount() << " functions, " << copies
        << " x " << per_copy << ") to " << out_path << "\n";
    return 0;
}

const std::vector<OptionSpec> &
simulateSpecs()
{
    static const std::vector<OptionSpec> specs = [] {
        std::vector<OptionSpec> s = {
            {"policy", "name", "orchestration policy", "cidre"},
            {"json", "file", "also dump metrics as JSON", ""},
            {"top-functions", "n", "list the n functions paying the most"
                                   " overhead", "0"},
            {"timeline", "", "print memory, cold-start and delayed-warm"
                            " sparklines in 10 s buckets", ""},
            {"slo-ms", "n", "count waits above this as SLO violations",
             "0"},
            {"stream-window-sec", "n", "windowed streaming replay of a"
                                       " .ctrb trace: advise the OS along"
                                       " an n-second window so peak RSS"
                                       " tracks the window, not the trace"
                                       " (results-neutral; needs --cells 1,"
                                       " --trials 1)", "0"},
            {"checkpoint", "file", "write engine state to this .ckpt at"
                                   " checkpoint boundaries", ""},
            {"checkpoint-every-sec", "n", "simulated seconds between"
                                          " periodic checkpoints (needs"
                                          " --checkpoint)", "0"},
            {"resume-from", "file", "restore engine state from a .ckpt"
                                    " and continue (bit-identical to the"
                                    " uninterrupted run)", ""},
            {"stop-at-sec", "n", "stop at this simulated time right"
                                 " after writing the checkpoint, skipping"
                                 " metrics (needs --checkpoint)", "0"},
            {"max-rss-mb", "n", "exit 1 if host peak RSS exceeds n MB"
                                " (0 = off)", "0"},
        };
        appendWorkloadSpecs(s);
        appendEngineSpecs(s);
        appendSweepSpecs(s);
        return s;
    }();
    return specs;
}

int
runSimulate(const Options &options, std::ostream &out, std::ostream &err)
{
    const std::string policy = options.getString("policy", "cidre");
    const auto top = static_cast<std::size_t>(
        options.getInt("top-functions", 0));
    const auto trials =
        static_cast<std::uint64_t>(options.getInt("trials", 1));
    if (trials == 0)
        throw std::invalid_argument("run: --trials must be >= 1");
    core::EngineConfig config = engineConfig(options);
    config.record_per_request = top > 0;
    config.slo_us = sim::msec(options.getInt("slo-ms", 0));

    // Parse the parallelism options up front: one trial uses --shards
    // and --pin, and a malformed --jobs is rejected there too.
    const exp::RunnerOptions runner_options = runnerOptions(options, err);
    const SteppedKnobs stepped = steppedKnobs(options);

    core::RunMetrics metrics;
    TimelineRows timeline;
    Workload single_workload;
    if (trials == 1) {
        single_workload = loadWorkload(
            options, stepped.stream_window > 0
                         ? trace::TraceOpenMode::Streaming
                         : trace::TraceOpenMode::Resident);
        resolveAutoCells(options, single_workload.view(), config,
                         runner_options.shards, err);
        if (stepped.stream_window > 0 && config.shard_cells > 1) {
            throw std::invalid_argument(
                "run: --stream-window-sec needs --cells 1 (cell builders"
                " gather the columns out of arrival order, so a windowed"
                " cursor cannot bound their residency)");
        }
        SteppedOutcome outcome = driveSteppedTrial(
            stepped, policy, config, single_workload, runner_options, err);
        if (outcome.stopped_early) {
            out << "stopped at " << sim::toSec(outcome.stop_time)
                << " s (checkpoint " << stepped.checkpoint_path
                << "); resume with --resume-from\n";
            return checkMaxRss(options, err);
        }
        metrics = std::move(outcome.metrics);
        timeline = std::move(outcome.timeline);
    } else {
        if (stepped.enabled()) {
            throw std::invalid_argument(
                "run: --stream-window-sec/--checkpoint/--resume-from/"
                "--stop-at-sec need --trials 1 (one engine, one cursor)");
        }
        if (top > 0 || stepped.timeline) {
            throw std::invalid_argument(
                "run: --top-functions/--timeline need --trials 1 (the"
                " per-request log and timeline are per-trial views)");
        }
        std::vector<core::RunMetrics> merged = runSweep(
            options, {policy}, trials, config, runner_options, err);
        metrics = std::move(merged[0]);
        out << "trials: " << trials << " (seed substreams of "
            << baseSeed(options) << ")\n";
    }
    reportRun(out, policy, metrics);
    if (config.slo_us > 0) {
        out << "SLO (" << sim::toMs(config.slo_us) << " ms) violations: "
            << metrics.slo_violations << " ("
            << stats::formatFixed(
                   metrics.total()
                       ? 100.0 * static_cast<double>(metrics.slo_violations) /
                           static_cast<double>(metrics.total())
                       : 0.0,
                   2)
            << "%)\n";
    }
    if (stepped.timeline) {
        out << "\ntimeline (" << sim::toSec(kTimelineBucket)
            << " s buckets):\n"
            << "  memory MB    " << stats::sparkline(timeline.memory_mb, 64)
            << "\n"
            << "  cold starts  "
            << stats::sparkline(timeline.cold_starts, 64) << "\n"
            << "  delayed warm "
            << stats::sparkline(timeline.delayed_warms, 64) << "\n";
    }

    if (top > 0) {
        stats::Table table({"function", "requests", "cold", "delayed",
                            "total wait s", "avg wait ms"});
        for (const auto &fb : core::perFunctionBreakdown(
                 single_workload.view(), metrics, top)) {
            table.addRow({fb.name, std::to_string(fb.requests),
                          std::to_string(fb.cold),
                          std::to_string(fb.delayed),
                          stats::formatFixed(fb.total_wait_ms / 1e3, 1),
                          stats::formatFixed(fb.avg_wait_ms, 1)});
        }
        out << "\ntop " << top << " functions by total overhead:\n";
        table.print(out);
    }
    if (options.has("json"))
        core::writeMetricsJsonFile(metrics, options.getString("json"));
    return checkMaxRss(options, err);
}

const std::vector<OptionSpec> &
liveSpecs()
{
    static const std::vector<OptionSpec> specs = [] {
        std::vector<OptionSpec> s = {
            {"policy", "name", "orchestration policy", "cidre"},
            {"rate", "f", "wall-clock replay speed as a multiple of"
                          " recorded time (results-neutral: pacing only"
                          " shapes delivery; 0 = as fast as the ring"
                          " accepts)", "0"},
            {"duration-sec", "n", "stream only arrivals in the first n"
                                  " simulated seconds (0 = whole trace)",
             "0"},
            {"ring-capacity", "n", "ingest ring slots (rounded up to a"
                                   " power of two)", "65536"},
            {"batch", "n", "max requests admitted per ring drain", "256"},
            {"pin-cpu", "n", "pin the admission thread to this CPU"
                             " (-1 = unpinned)", "-1"},
            {"open-loop", "", "synthetic open-loop producers instead of"
                              " trace replay (functions drawn from the"
                              " loaded workload; ignores --rate/"
                              "--duration-sec)", ""},
            {"producers", "n", "open-loop producer threads", "1"},
            {"open-loop-requests", "n", "total open-loop requests",
             "1000000"},
            {"open-loop-iat-us", "n", "virtual microseconds between"
                                      " consecutive open-loop arrivals",
             "1"},
            {"open-loop-exec-ms", "n", "execution time of every open-loop"
                                       " request", "100"},
            {"json", "file", "also dump metrics as JSON", ""},
            {"max-rss-mb", "n", "exit 1 if host peak RSS exceeds n MB"
                                " (0 = off)", "0"},
        };
        appendWorkloadSpecs(s);
        appendEngineSpecs(s);
        return s;
    }();
    return specs;
}

int
runLive(const Options &options, std::ostream &out, std::ostream &err)
{
    const std::string policy = options.getString("policy", "cidre");
    core::EngineConfig config = engineConfig(options);

    const double rate = options.getDouble("rate", 0.0);
    const std::int64_t duration_sec = options.getInt("duration-sec", 0);
    if (duration_sec < 0)
        throw std::invalid_argument("live: --duration-sec must be >= 0");
    const std::int64_t ring_capacity =
        options.getInt("ring-capacity", 65536);
    if (ring_capacity < 2)
        throw std::invalid_argument("live: --ring-capacity must be >= 2");
    const std::int64_t batch = options.getInt("batch", 256);
    if (batch < 1)
        throw std::invalid_argument("live: --batch must be >= 1");
    live::OrchestratorOptions orch;
    orch.batch = static_cast<std::size_t>(batch);
    orch.pin_cpu = static_cast<int>(options.getInt("pin-cpu", -1));

    const Workload workload = loadWorkload(options);
    const trace::TraceView view = workload.view();
    resolveAutoCells(options, view, config, 1, err);

    live::IngestRing ring(static_cast<std::size_t>(ring_capacity));
    live::ProducerStats producer_stats;
    std::atomic<bool> done{false};

    // Ingest source: replay the loaded trace's arrival sequence
    // (optionally wall-clock paced) or run the synthetic open-loop
    // generator over the loaded function table.
    const bool open_loop = options.getFlag("open-loop");
    live::PacerOptions pacer_options;
    pacer_options.rate = rate;
    if (duration_sec > 0)
        pacer_options.until_us = sim::sec(duration_sec);
    live::SyntheticOptions synth_options;
    if (open_loop) {
        const std::int64_t producers = options.getInt("producers", 1);
        if (producers < 1)
            throw std::invalid_argument("live: --producers must be >= 1");
        const std::int64_t total =
            options.getInt("open-loop-requests", 1'000'000);
        if (total < 1) {
            throw std::invalid_argument(
                "live: --open-loop-requests must be >= 1");
        }
        const std::int64_t iat = options.getInt("open-loop-iat-us", 1);
        if (iat < 1) {
            throw std::invalid_argument(
                "live: --open-loop-iat-us must be >= 1");
        }
        const std::int64_t exec_ms =
            options.getInt("open-loop-exec-ms", 100);
        if (exec_ms < 0) {
            throw std::invalid_argument(
                "live: --open-loop-exec-ms must be >= 0");
        }
        synth_options.producers = static_cast<unsigned>(producers);
        synth_options.requests_per_producer = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(total) /
                   static_cast<std::uint64_t>(producers));
        synth_options.inter_arrival_us = iat;
        synth_options.exec_us = sim::msec(exec_ms);
        synth_options.function_count =
            static_cast<std::uint32_t>(view.functionCount());
        synth_options.seed = baseSeed(options);
    }

    if (config.shard_cells > 1 && workload.image)
        workload.image->adviseShardedGather();
    core::ShardedEngine engine(view, config, registryPolicy(policy));
    engine.beginLive();

    // The consumer (this thread) drains until the producers have joined;
    // a closer thread flips the done flag after the final push so the
    // orchestrator's empty-ring re-drain check is race-free.  When an
    // admission throws, the consumer keeps draining until the producers
    // are done, so that none stays blocked on a full ring, joins the
    // closer and rethrows.
    live::LiveStats live_stats;
    const auto consume = [&](auto &source) {
        source.start();
        std::thread closer([&] {
            source.join();
            done.store(true, std::memory_order_release);
        });
        try {
            live_stats = live::runLive(engine, ring, done, orch);
        } catch (...) {
            std::vector<live::IngestRequest> sink(256);
            while (!done.load(std::memory_order_acquire))
                ring.drain(sink.data(), sink.size());
            closer.join();
            throw;
        }
        closer.join();
    };
    if (open_loop) {
        live::SyntheticProducers producers(ring, producer_stats,
                                           synth_options);
        consume(producers);
    } else {
        live::TracePacer pacer(view, ring, producer_stats, pacer_options);
        consume(pacer);
    }
    const core::RunMetrics metrics = engine.finish(nullptr);

    const stats::LatencyHistogram &h = live_stats.decision_ns;
    out << "live: admitted " << live_stats.admitted << " requests in "
        << stats::formatFixed(live_stats.wall_seconds, 3) << " s ("
        << stats::formatFixed(live_stats.admitRate() / 1e6, 3)
        << " M req/s sustained)\n"
        << "decision latency ns: p50 " << h.percentile(0.5) << "  p99 "
        << h.percentile(0.99) << "  p999 " << h.percentile(0.999)
        << "  max " << h.maxValue() << "  mean "
        << stats::formatFixed(h.mean(), 0) << "\n"
        << "ingest: produced "
        << producer_stats.produced.load(std::memory_order_relaxed)
        << ", backpressure retries "
        << producer_stats.backpressure.load(std::memory_order_relaxed)
        << ", reordered arrivals " << live_stats.reordered << "\n";
    reportRun(out, policy, metrics);
    if (options.has("json"))
        core::writeMetricsJsonFile(metrics, options.getString("json"));
    return checkMaxRss(options, err);
}

const std::vector<OptionSpec> &
compareSpecs()
{
    static const std::vector<OptionSpec> specs = [] {
        std::vector<OptionSpec> s = {
            {"policies", "a,b,...", "comma-separated policy names",
             "cidre,cidre-bss,faascache,ttl"},
        };
        appendWorkloadSpecs(s);
        appendEngineSpecs(s);
        appendSweepSpecs(s);
        return s;
    }();
    return specs;
}

int
runCompare(const Options &options, std::ostream &out, std::ostream &err)
{
    std::vector<std::string> names = options.getList("policies");
    if (names.empty())
        names = {"cidre", "cidre-bss", "faascache", "ttl"};
    const auto trials =
        static_cast<std::uint64_t>(options.getInt("trials", 1));
    if (trials == 0)
        throw std::invalid_argument("compare: --trials must be >= 1");
    const core::EngineConfig config = engineConfig(options);

    const exp::RunnerOptions runner_options = runnerOptions(options, err);
    const std::vector<core::RunMetrics> merged =
        runSweep(options, names, trials, config, runner_options, err);

    if (trials > 1) {
        out << "trials: " << trials << " per policy (seed substreams of "
            << baseSeed(options) << ")\n";
    }
    stats::Table table({"policy", "overhead %", "cold %", "delayed %",
                        "warm %", "E2E p50 ms", "created"});
    for (std::size_t p = 0; p < names.size(); ++p) {
        const core::RunMetrics &m = merged[p];
        table.addRow(names[p],
                     {m.avgOverheadRatioPct(), m.coldRatio() * 100.0,
                      m.delayedRatio() * 100.0, m.warmRatio() * 100.0,
                      m.e2eHistogram().percentile(0.5) / 1e3,
                      static_cast<double>(m.containers_created)},
                     1);
    }
    table.print(out);
    return 0;
}

const std::vector<OptionSpec> &
analyzeSpecs()
{
    static const std::vector<OptionSpec> specs = [] {
        std::vector<OptionSpec> s;
        appendWorkloadSpecs(s);
        return s;
    }();
    return specs;
}

int
runAnalyze(const Options &options, std::ostream &out, std::ostream &)
{
    const Workload holder = loadWorkload(options);
    const trace::TraceView workload = holder.view();
    const trace::TraceStats stats = workload.computeStats();
    out << "requests: " << stats.request_count
        << "  functions: " << stats.function_count
        << "  duration: " << stats::formatFixed(sim::toMin(stats.duration), 1)
        << " min\n"
        << "rps avg/min/max: " << stats::formatFixed(stats.rps_avg, 1)
        << " / " << stats::formatFixed(stats.rps_min, 1) << " / "
        << stats::formatFixed(stats.rps_max, 1) << "\n"
        << "GBps avg/max: " << stats::formatFixed(stats.gbps_avg, 1)
        << " / " << stats::formatFixed(stats.gbps_max, 1) << "\n\n";

    const auto ratio = analysis::coldExecRatioCdf(workload);
    const auto concurrency = analysis::concurrencyPerMinuteCdf(workload);
    const auto cv = analysis::execTimeCvCdf(workload);
    const auto opportunity = analysis::opportunityCdf(workload);

    stats::Table table({"analysis", "p50", "p90", "p99"});
    table.addRow("cold/exec ratio",
                 {ratio.percentile(0.5), ratio.percentile(0.9),
                  ratio.percentile(0.99)},
                 2);
    table.addRow("reqs/min per function",
                 {concurrency.percentile(0.5), concurrency.percentile(0.9),
                  concurrency.percentile(0.99)},
                 0);
    table.addRow("exec-time CV per function",
                 {cv.percentile(0.5), cv.percentile(0.9),
                  cv.percentile(0.99)},
                 2);
    table.addRow("delayed-warm opportunities",
                 {opportunity.percentile(0.5), opportunity.percentile(0.9),
                  opportunity.percentile(0.99)},
                 0);
    table.print(out);
    return 0;
}

const std::vector<OptionSpec> &
tuneSpecs()
{
    static const std::vector<OptionSpec> specs = [] {
        std::vector<OptionSpec> s = {
            {"space", "spec", "parameter space, knob=v1|v2|... or"
                              " knob=lo:hi:step, comma-separated; shape"
                              " knobs: workers, cache-gb, cells,"
                              " window-min; fork knobs: policy, ttl-sec,"
                              " cip-weight, te-percentile (required)", ""},
            {"policy", "name", "base policy: runs the shared warm-up"
                               " prefix and is the fork default", "cidre"},
            {"driver", "name", "search driver: grid|random|anneal",
             "grid"},
            {"budget", "n", "trial budget of the random/anneal drivers",
             "64"},
            {"warmup-sec", "n", "simulated seconds of warm-up prefix"
                                " shared by every trial (-1 = half the"
                                " trace duration, 0 = fork at t=0)", "-1"},
            {"search-seed", "n", "seed of the search driver's own walk"
                                 " (trial substreams key on --seed and"
                                 " the stable point id)", "1"},
            {"cold", "", "disable the shared warm-snapshot fast path:"
                         " every trial replays its prefix (bit-identical"
                         " results, slower)", ""},
            {"objectives", "a,b,...", "minimized objectives, comma list:"
                                      " p99-ms, gbs, cold-starts",
             "p99-ms,gbs"},
            {"json", "file", "also write the tune JSON to this file", ""},
        };
        appendWorkloadSpecs(s);
        appendEngineSpecs(s);
        // Parallelism knobs only: tune derives its trial list from the
        // search driver, so the sweep's --trials knob does not apply.
        appendParallelSpecs(s);
        return s;
    }();
    return specs;
}

int
runTune(const Options &options, std::ostream &out, std::ostream &err)
{
    const std::string space_spec = options.getString("space");
    if (space_spec.empty()) {
        throw std::invalid_argument(
            "tune requires --space \"knob=v1|v2,...\"");
    }
    const tune::ParameterSpace space =
        tune::ParameterSpace::parse(space_spec);

    const std::string driver_name = options.getString("driver", "grid");
    const auto budget =
        static_cast<std::uint64_t>(options.getInt("budget", 64));
    const auto search_seed =
        static_cast<std::uint64_t>(options.getInt("search-seed", 1));

    core::EngineConfig config = engineConfig(options);
    const exp::RunnerOptions runner_options = runnerOptions(options, err);
    const Workload workload = loadWorkload(options);
    resolveAutoCells(options, workload.view(), config,
                     runner_options.shards, err);

    bool may_shard = config.shard_cells > 1;
    for (const tune::Knob &knob : space.knobs())
        may_shard = may_shard || knob.name == "cells";
    if (may_shard && workload.image)
        workload.image->adviseShardedGather();

    const std::int64_t warmup_sec = options.getInt("warmup-sec", -1);
    const sim::SimTime fork_time = warmup_sec < 0
        ? workload.view().duration() / 2
        : sim::sec(warmup_sec);

    exp::Heartbeat heartbeat(
        &err, "tune",
        static_cast<std::size_t>(driver_name == "grid" ? space.pointCount()
                                                       : budget));

    tune::TuneOptions tune_options;
    tune_options.base_policy = options.getString("policy", "cidre");
    tune_options.base_config = config;
    tune_options.base_seed = baseSeed(options);
    tune_options.fork_time = fork_time;
    tune_options.warm = !options.getFlag("cold");
    tune_options.runner = runner_options;
    tune_options.heartbeat = &heartbeat;
    tune_options.objectives =
        tune::parseObjectives(options.getString("objectives", ""));
    const std::vector<tune::ObjectiveDef> &objectives =
        tune_options.objectives;

    tune::TuneEvaluator evaluator(space, workload.view(), tune_options);
    const std::unique_ptr<tune::SearchDriver> driver =
        tune::makeDriver(driver_name, space, budget, search_seed);

    const auto frontIndices = [&evaluator]() {
        std::vector<std::vector<double>> objectives;
        objectives.reserve(evaluator.outcomes().size());
        for (const tune::TrialOutcome &outcome : evaluator.outcomes())
            objectives.push_back(outcome.objectives);
        return tune::paretoFront(objectives);
    };

    std::vector<tune::Point> batch;
    std::vector<std::size_t> front;
    while (!(batch = driver->nextBatch()).empty()) {
        driver->report(evaluator.evaluate(batch));
        front = frontIndices();
        heartbeat.tick(evaluator.outcomes().size(),
                       "pareto " + std::to_string(front.size()));
    }
    front = frontIndices();
    heartbeat.finish(evaluator.outcomes().size(),
                     "pareto " + std::to_string(front.size()));
    if (evaluator.outcomes().empty())
        throw std::runtime_error("tune: the search evaluated no trials");

    // Stable presentation order: objectives lexicographically (first
    // objective first), then point id.
    std::sort(front.begin(), front.end(),
              [&evaluator](std::size_t a, std::size_t b) {
                  const tune::TrialOutcome &oa = evaluator.outcomes()[a];
                  const tune::TrialOutcome &ob = evaluator.outcomes()[b];
                  for (std::size_t j = 0; j < oa.objectives.size(); ++j)
                      if (oa.objectives[j] != ob.objectives[j])
                          return oa.objectives[j] < ob.objectives[j];
                  return oa.id < ob.id;
              });

    err << "pareto front: " << front.size() << " of "
        << evaluator.outcomes().size() << " evaluated points ("
        << evaluator.snapshotsBuilt() << " warm snapshots)\n";
    std::vector<std::string> headers = {"params"};
    for (const tune::ObjectiveDef &objective : objectives)
        headers.emplace_back(objective.column);
    stats::Table table(headers);
    for (const std::size_t i : front) {
        const tune::TrialOutcome &o = evaluator.outcomes()[i];
        std::vector<std::string> row = {o.label};
        for (std::size_t j = 0; j < objectives.size(); ++j)
            row.push_back(stats::formatFixed(o.objectives[j],
                                             objectives[j].decimals));
        table.addRow(row);
    }
    table.print(err);

    // The JSON is a pure function of (workload, space, driver, seeds):
    // no host timings, no warm/cold mode — a warm and a --cold run of
    // the same search emit byte-identical files (the CI smoke `cmp`s
    // them, which is what pins warm==cold end to end).
    const auto writeJson = [&](std::ostream &js) {
        const auto escape = [](const std::string &text) {
            std::string escaped;
            for (const char c : text) {
                if (c == '"' || c == '\\')
                    escaped += '\\';
                escaped += c;
            }
            return escaped;
        };
        js << std::fixed << std::setprecision(6);
        js << "{\n  \"tune\": {\n";
        js << "    \"driver\": \"" << escape(driver_name) << "\",\n";
        js << "    \"policy\": \"" << escape(tune_options.base_policy)
           << "\",\n";
        js << "    \"space\": \"" << escape(space_spec) << "\",\n";
        js << "    \"warmup_sec\": " << sim::toSec(fork_time) << ",\n";
        js << "    \"evaluated\": " << evaluator.outcomes().size()
           << ",\n";
        js << "    \"pareto\": [\n";
        for (std::size_t n = 0; n < front.size(); ++n) {
            const tune::TrialOutcome &o = evaluator.outcomes()[front[n]];
            js << "      {\"id\": \"" << std::hex << o.id << std::dec
               << "\", \"params\": \"" << escape(o.label) << "\"";
            for (std::size_t j = 0; j < objectives.size(); ++j)
                js << ", \"" << objectives[j].json_key
                   << "\": " << o.objectives[j];
            js << "}" << (n + 1 < front.size() ? "," : "") << "\n";
        }
        js << "    ]\n  }\n}\n";
    };
    writeJson(out);
    if (options.has("json")) {
        const std::string path = options.getString("json");
        std::ofstream file(path, std::ios::trunc);
        if (!file)
            throw std::runtime_error("tune: cannot write " + path);
        writeJson(file);
    }
    return 0;
}

int
dispatch(int argc, const char *const *argv, std::ostream &out,
         std::ostream &err)
{
    const auto usage = [&]() {
        err << "usage: cidre_sim"
               " <generate|run|live|compare|analyze|tune|convert|synth>"
               " [options]\n"
               "run `cidre_sim <command> --help` for command options\n";
        return 2;
    };
    if (argc < 2)
        return usage();
    const std::string command = argv[1];

    struct Entry
    {
        const char *name;
        const char *synopsis;
        const std::vector<OptionSpec> &(*specs)();
        int (*run)(const Options &, std::ostream &, std::ostream &);
    };
    const Entry entries[] = {
        {"generate", "--out trace.csv [options]", &generateSpecs,
         &runGenerate},
        {"run", "--policy cidre [options]", &simulateSpecs,
         &runSimulate},
        {"live", "--trace x.ctrb [--rate f] [--duration-sec n]"
                 " [options]", &liveSpecs, &runLive},
        {"compare", "--policies a,b,c [options]", &compareSpecs,
         &runCompare},
        {"analyze", "[options]", &analyzeSpecs, &runAnalyze},
        {"tune", "--space \"knob=v1|v2,...\" [options]", &tuneSpecs,
         &runTune},
        {"convert", "<input> <output> (CSV <-> .ctrb, by content)",
         &convertSpecs, &runConvert},
        {"synth", "--out big.ctrb --copies n [options] <in.ctrb ...>",
         &synthSpecs, &runSynth},
    };
    for (const Entry &entry : entries) {
        if (command != entry.name)
            continue;
        for (int i = 2; i < argc; ++i) {
            if (std::string(argv[i]) == "--help") {
                out << usageText(std::string("cidre_sim ") + entry.name,
                                 entry.synopsis, entry.specs());
                return 0;
            }
        }
        try {
            const Options options =
                Options::parse(argc - 1, argv + 1, entry.specs());
            return entry.run(options, out, err);
        } catch (const std::exception &e) {
            err << "cidre_sim " << entry.name << ": " << e.what() << "\n";
            return 2;
        }
    }
    return usage();
}

} // namespace cidre::cli

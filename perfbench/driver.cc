/**
 * @file
 * The repository benchmark driver: one process per benchmark run.
 *
 *   perfbench_driver prepare --workload W --seed S --dir D
 *   perfbench_driver measure --workload W --seed S --dir D --seconds N
 *                            --trace 0|1 [--launch-ns T]
 *
 * Both also take --scale F and --subtraces N, which shrink a workload
 * for smoke runs (the self-test).
 *
 * `prepare` builds the run's inputs from the seed alone (sub-trace k is
 * trace::generate(spec, substreamSeed(seed, k))) and writes them as
 * .ctrb images, outside every timed section and in its own process so
 * generation never shows in the measured process's peak RSS.
 * `measure` runs the workload through the library's public calls and
 * prints a human report, an `env` line (seed, build, CPUs) and, last,
 * the result object {correct, attempted, failed, metrics}.
 *
 * Every figure is timed from outside the library: the driver times its
 * own calls into each layer, and the traced run (--trace 1) wraps the
 * policy plug-in interfaces (see instrument.h).  Untraced runs report
 * the end-to-end metrics; traced runs report the per-layer ones.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "core/metrics_io.h"
#include "core/sharded_engine.h"
#include "exp/runner.h"
#include "instrument.h"
#include "live/ingest_ring.h"
#include "live/orchestrator.h"
#include "policies/registry.h"
#include "sim/rng.h"
#include "sim/serialize.h"
#include "sim/thread_pool.h"
#include "sim/topology.h"
#include "trace/generators.h"
#include "trace/trace.h"
#include "trace/trace_image.h"
#include "tune/evaluator.h"
#include "tune/search.h"
#include "tune/space.h"

namespace cidre::perfbench_driver {
namespace {

using ::perfbench::decorate;
using ::perfbench::LayerLedger;
using ::perfbench::nowNs;

// ---- workloads -------------------------------------------------------

/** One benchmark workload: its inputs, cluster and execution shape. */
struct Workload
{
    std::string name;
    /** fcLikeSpec (bursty FC-like) instead of azureLikeSpec. */
    bool fc = false;
    /** Inputs are .ctrb images written by `prepare` (else generated). */
    bool image = true;
    std::uint32_t workers = 3;
    std::int64_t cache_gb = 100;
    std::uint32_t cells = 1;
    /**
     * Upper bound on threads: shard threads of a sharded replay,
     * side-by-side single-cell replays or live streams, or tune jobs.
     */
    unsigned max_threads = 1;
    /** Independently generated sub-traces replayed per pass. */
    std::size_t subtraces = 1;
    /** Simulated length of every sub-trace (the presets' is 30). */
    std::int64_t minutes = 30;
    /** Request-volume multiplier of every sub-trace (smoke runs). */
    double scale = 1.0;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"replay-pressured", false, true, 3, 100, 1, 4, 12, 10},
        {"replay-sharded-roomy", true, false, 8, 4000, 4, 4, 12, 30},
        {"live-paced", false, true, 3, 100, 1, 4, 12, 10},
        {"tune-warm-fork", false, true, 3, 100, 1, 4, 6, 10},
    };
    return all;
}

/** Pace of the live-paced producer (200x the Azure trace's rate). */
constexpr double kLivePaceReqPerSec = 64000.0;
/** The orchestration policy every workload runs. */
constexpr const char *kPolicy = "cidre";
/** Ring slots of every live run (the CLI default). */
constexpr std::size_t kRingCapacity = 65536;
/** The tune-warm-fork grid: fork knobs x one shape knob. */
constexpr const char *kTuneSpace =
    "cache-gb=80|100,cip-weight=1|2,te-percentile=0.5|0.9";

unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
threadsFor(const Workload &w)
{
    return std::min(w.max_threads, availableCpus());
}

std::uint64_t
subSeed(std::uint64_t seed, std::size_t k)
{
    return sim::substreamSeed(seed, k);
}

trace::Trace
generateSub(const Workload &w, std::uint64_t seed, std::size_t k)
{
    trace::SyntheticSpec spec =
        w.fc ? trace::fcLikeSpec() : trace::azureLikeSpec();
    spec.duration = sim::minutes(w.minutes);
    spec.total_rps *= w.scale;
    return trace::generate(spec, subSeed(seed, k));
}

std::string
imagePath(const std::string &dir, std::size_t k)
{
    return dir + "/sub" + std::to_string(k) + ".ctrb";
}

core::EngineConfig
engineConfig(const Workload &w, std::uint64_t seed)
{
    core::EngineConfig config;
    config.cluster.workers = w.workers;
    config.cluster.total_memory_mb = w.cache_gb * 1024;
    config.shard_cells = w.cells;
    config.seed = seed;
    config.validate();
    return config;
}

/** One sub-trace: a mapped image or an in-process generated trace. */
struct Source
{
    std::optional<trace::TraceImage> image;
    std::optional<trace::Trace> generated;

    trace::TraceView view() const
    {
        return image ? image->view() : trace::TraceView(*generated);
    }
};

Source
acquire(const Workload &w, const std::string &dir, std::uint64_t seed,
        std::size_t k)
{
    Source source;
    if (w.image)
        source.image.emplace(trace::TraceImage::open(imagePath(dir, k)));
    else
        source.generated.emplace(generateSub(w, seed, k));
    return source;
}

// ---- small statistics and I/O helpers --------------------------------

/** Linear-interpolated quantile (numpy's default), q in [0, 1]. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
millis(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

std::string
metricsJson(const core::RunMetrics &metrics)
{
    std::ostringstream out;
    core::writeMetricsJson(metrics, out);
    return out.str();
}

double
peakRssMb()
{
    struct rusage usage{};
    if (::getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

/** Current resident set size in bytes (/proc/self/statm). */
double
currentRssBytes()
{
    std::ifstream statm("/proc/self/statm");
    long pages = 0, resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident) *
        static_cast<double>(::sysconf(_SC_PAGESIZE));
}

/** Ordered metric name -> (value, unit) of the result object. */
class Report
{
  public:
    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics_[name] = {value, unit};
    }

    void printHuman(std::ostream &out) const
    {
        for (const auto &[name, entry] : metrics_) {
            out << "  " << name << " = " << formatNumber(entry.first) << ' '
                << entry.second << '\n';
        }
    }

    std::string json() const
    {
        std::ostringstream out;
        out << '{';
        bool first = true;
        for (const auto &[name, entry] : metrics_) {
            out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
                << formatNumber(entry.first) << ", \"unit\": \""
                << entry.second << "\"}";
            first = false;
        }
        out << '}';
        return out.str();
    }

    static std::string formatNumber(double value)
    {
        if (!std::isfinite(value))
            value = 0.0;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return buf;
    }

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
};

/** Operations attempted and failed; a failed check fails its ops. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /**
     * Run @p body, which sets its operation count (requests or trials)
     * as soon as it knows it and returns whether its checks passed.  A
     * failed check or an exception fails every operation of the unit.
     */
    template <typename Body>
    bool attempt(const std::string &what, Body &&body)
    {
        std::uint64_t ops = 1;
        bool ok = false;
        try {
            ok = body(ops);
            if (!ok)
                std::cerr << "perfbench: check failed: " << what << '\n';
        } catch (const std::exception &e) {
            std::cerr << "perfbench: " << what << " threw: " << e.what()
                      << '\n';
        }
        attempted += ops;
        if (!ok)
            failed += ops;
        return ok;
    }
};

/**
 * Run @p unit(k, ops) for every sub-trace k on @p jobs threads, each
 * under its own ledger, then fold the ledgers into @p ops.
 * @return which units passed their checks.
 */
template <typename Unit>
std::vector<char>
attemptEach(std::size_t count, unsigned jobs, const std::string &what,
            Ledger &ops, Unit &&unit)
{
    std::vector<Ledger> ledgers(count);
    std::vector<char> ok(count, 0);
    exp::parallelFor(jobs, count, [&](std::size_t k) {
        ok[k] = ledgers[k].attempt(
            what + " " + std::to_string(k),
            [&](std::uint64_t &n) { return unit(k, n); });
    });
    for (const Ledger &ledger : ledgers) {
        ops.attempted += ledger.attempted;
        ops.failed += ledger.failed;
    }
    return ok;
}

// ---- engines and probes ----------------------------------------------

/**
 * Per-engine instrumentation: one ArrivalClock stamp vector per cell,
 * plus one decorator ledger per cell when traced.  deque keeps the
 * references handed to the policies stable while cells are added.
 */
struct Probe
{
    bool traced = false;
    std::size_t reserve = 0;
    std::deque<std::vector<std::int64_t>> stamps;
    std::deque<LayerLedger> ledgers;

    core::ShardedEngine::PolicyFactory factory(bool clock)
    {
        return [this, clock](const core::EngineConfig &config) {
            core::OrchestrationPolicy bundle =
                policies::makePolicy(kPolicy, config);
            if (clock) {
                if (bundle.agent)
                    throw std::logic_error("perfbench: the policy already "
                                           "has an agent");
                std::vector<std::int64_t> &cell = stamps.emplace_back();
                cell.reserve(reserve);
                bundle.agent =
                    std::make_unique<::perfbench::ArrivalClock>(cell);
            }
            if (traced)
                bundle = decorate(std::move(bundle), ledgers.emplace_back());
            return bundle;
        };
    }

    LayerLedger total() const
    {
        LayerLedger sum;
        for (const LayerLedger &l : ledgers)
            sum.add(l);
        return sum;
    }
};

/**
 * Closed-loop per-request delays: a request is due the moment its
 * predecessor in the same cell has been handled, so its delay is the
 * gap between consecutive handling stamps (the first is measured from
 * @p started_ns).  Microseconds, all cells pooled.
 */
std::vector<double>
closedLoopDelaysUs(const Probe &probe, std::int64_t started_ns)
{
    std::vector<double> gaps;
    for (const std::vector<std::int64_t> &cell : probe.stamps) {
        std::int64_t prev = started_ns;
        for (const std::int64_t stamp : cell) {
            gaps.push_back(static_cast<double>(stamp - prev) * 1e-3);
            prev = stamp;
        }
    }
    return gaps;
}

/** What one untimed-setup, timed-run replay measured. */
struct ReplayResult
{
    double setup_s = 0.0;
    /** begin() returned -> metrics JSON written. */
    double run_s = 0.0;
    /** finish() alone (the stepping wall). */
    double step_s = 0.0;
    std::uint64_t requests = 0;
    core::RunMetrics metrics;
    std::string json;
};

/**
 * Replay @p source under cidre: set-up is charged from @p setup_start_ns
 * until begin() returned, the run from there until the metrics JSON is
 * on disk.
 */
ReplayResult
replay(const Source &source, const core::EngineConfig &config,
       sim::ThreadPool *pool, const std::string &json_path,
       std::int64_t setup_start_ns)
{
    const trace::TraceView view = source.view();
    core::ShardedEngine engine(view, config,
                               [](const core::EngineConfig &cell) {
                                   return policies::makePolicy(kPolicy, cell);
                               });
    engine.begin();
    const std::int64_t started = nowNs();

    ReplayResult result;
    result.setup_s = seconds(started - setup_start_ns);
    result.metrics = engine.finish(pool);
    const std::int64_t stepped = nowNs();
    core::writeMetricsJsonFile(result.metrics, json_path);
    const std::int64_t written = nowNs();

    result.run_s = seconds(written - started);
    result.step_s = seconds(stepped - started);
    result.requests = view.requestCount();
    result.json = readFile(json_path);
    return result;
}

/** What a checkpoint-split replay measured. */
struct SplitReplay
{
    LayerLedger ledger;
    std::vector<std::int64_t> cell_ns;
    std::vector<std::uint64_t> cell_events;
    std::int64_t begin_ns = 0;
    std::int64_t save_ns = 0;
    std::int64_t restore_ns = 0;
    std::int64_t finish_ns = 0;
    std::int64_t write_ns = 0;
    std::uint64_t checkpoint_bytes = 0;
    core::RunMetrics metrics;
    std::string json;

    std::int64_t steppingNs() const
    {
        std::int64_t sum = 0;
        for (const std::int64_t ns : cell_ns)
            sum += ns;
        return sum;
    }

    std::uint64_t events() const
    {
        std::uint64_t sum = 0;
        for (const std::uint64_t n : cell_events)
            sum += n;
        return sum;
    }

    /** Host seconds of the replay proper (checkpointing excluded). */
    double replaySeconds() const
    {
        return seconds(steppingNs() + finish_ns + write_ns);
    }
};

/**
 * A serial replay split at @p fork_time by an explicit checkpoint
 * round trip: step every cell to the fork (each cell timed through
 * forEachCell), saveState into an in-memory checkpoint buffer, restore
 * it into a fresh engine, apply @p at_fork to every restored cell, step
 * the rest, finish and write the JSON.  With @p traced the bundles are
 * decorated.  Restoring is bit-identical to not stopping, so the JSON
 * must equal an uninterrupted run's.
 */
SplitReplay
splitReplay(trace::TraceView view, const core::EngineConfig &config,
             bool clock, sim::SimTime fork_time,
             const std::function<void(core::Engine &, std::uint32_t)> &at_fork,
             bool traced, const std::string &json_path)
{
    SplitReplay out;
    out.cell_ns.assign(config.shard_cells, 0);
    out.cell_events.assign(config.shard_cells, 0);
    const auto stepCells = [&out](core::ShardedEngine &engine,
                                  sim::SimTime until) {
        engine.forEachCell([&out, until](core::Engine &cell,
                                         std::uint32_t k) {
            const std::uint64_t before = cell.eventsExecuted();
            const std::int64_t t0 = nowNs();
            cell.stepUntil(until);
            out.cell_ns[k] += nowNs() - t0;
            out.cell_events[k] += cell.eventsExecuted() - before;
        });
    };

    const std::uint64_t fingerprint =
        core::checkpointFingerprint(config, kPolicy, view);
    Probe first;
    first.traced = traced;
    first.reserve = view.requestCount() / config.shard_cells + 1024;
    core::CheckpointBuffer buffer;
    {
        std::int64_t t0 = nowNs();
        core::ShardedEngine engine(view, config,
                                   first.factory(clock));
        engine.begin();
        out.begin_ns = nowNs() - t0;
        stepCells(engine, fork_time);

        t0 = nowNs();
        sim::StateWriter writer;
        engine.saveState(writer);
        buffer = core::makeCheckpointBuffer(fingerprint, writer.release());
        out.save_ns = nowNs() - t0;
        out.checkpoint_bytes =
            sizeof(core::CheckpointHeader) + buffer.payload.size();
    }

    Probe second;
    second.traced = traced;
    second.reserve = first.reserve;
    std::int64_t t0 = nowNs();
    core::ShardedEngine engine(view, config, second.factory(clock));
    {
        sim::StateReader reader(
            core::openCheckpointBuffer(buffer, fingerprint));
        engine.loadState(reader);
    }
    out.restore_ns = nowNs() - t0;

    if (at_fork)
        engine.forEachCell(at_fork);
    stepCells(engine, sim::kTimeInfinity);

    t0 = nowNs();
    out.metrics = engine.finish(nullptr);
    out.finish_ns = nowNs() - t0;
    t0 = nowNs();
    core::writeMetricsJsonFile(out.metrics, json_path);
    out.write_ns = nowNs() - t0;
    out.json = readFile(json_path);

    out.ledger = first.total();
    out.ledger.add(second.total());
    return out;
}

// ---- live streaming --------------------------------------------------

/** What one live stream measured. */
struct LiveResult
{
    double setup_s = 0.0;
    live::LiveStats stats;
    std::uint64_t backpressure = 0;
    /**
     * Due -> handled per request, microseconds: on the fixed schedule
     * when paced, closed-loop (see closedLoopDelaysUs) when unpaced.
     */
    std::vector<double> delay_us;
    /** Push completion -> due, p99, microseconds (paced only). */
    double producer_late_p99_us = 0.0;
    double rss_bytes_per_request = 0.0;
    core::RunMetrics metrics;
    std::string json;
};

/**
 * Stream @p source through live::IngestRing into Engine::admit via
 * live::runLive, from the benchmark's own producer thread.  With
 * @p pace_req_per_s > 0 request i is due at start + i / pace and is
 * pushed no earlier; otherwise requests are pushed as fast as the ring
 * accepts them.  With @p timed an ArrivalClock reads the instant the
 * engine starts handling each request, and the producer records when it
 * pushed each one (the delay and lateness distributions).
 */
LiveResult
stream(const Source &source, const core::EngineConfig &config,
       double pace_req_per_s, bool timed, const std::string &json_path,
       std::int64_t setup_start_ns)
{
    const trace::TraceView view = source.view();
    const std::uint64_t n = view.requestCount();
    Probe probe;
    probe.reserve = n + 1024;
    core::ShardedEngine engine(view, config, probe.factory(timed));
    engine.beginLive();

    LiveResult result;
    const std::int64_t armed = nowNs();
    result.setup_s = seconds(armed - setup_start_ns);

    std::vector<std::int64_t> pushed(timed ? n : 0, 0);
    live::IngestRing ring(kRingCapacity);
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> backpressure{0};
    const bool paced = pace_req_per_s > 0.0;
    const double period_ns = paced ? 1e9 / pace_req_per_s : 0.0;
    // Start the schedule a little ahead so the first request is not
    // late by the thread's start-up.
    const std::int64_t start_ns = nowNs() + 2'000'000;
    const double rss_before = currentRssBytes();

    std::thread producer([&] {
        for (std::uint64_t i = 0; i < n; ++i) {
            if (paced) {
                const std::int64_t due = start_ns +
                    static_cast<std::int64_t>(static_cast<double>(i) *
                                              period_ns);
                std::int64_t now = nowNs();
                if (due - now > 200'000)
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(due - now - 100'000));
                while (nowNs() < due) {
                }
            }
            ring.pushBlocking(live::IngestRequest{view.requestFunction(i),
                                                  view.arrivalUs(i),
                                                  view.execUs(i)},
                              backpressure);
            if (timed)
                pushed[i] = nowNs();
        }
        done.store(true, std::memory_order_release);
    });
    try {
        result.stats = live::runLive(engine, ring, done);
    } catch (...) {
        // Keep draining so the producer can finish, then rethrow.
        std::vector<live::IngestRequest> sink(256);
        while (!done.load(std::memory_order_acquire))
            ring.drain(sink.data(), sink.size());
        producer.join();
        throw;
    }
    producer.join();
    result.backpressure = backpressure.load();
    result.rss_bytes_per_request =
        ratio(currentRssBytes() - rss_before, static_cast<double>(n));

    result.metrics = engine.finish(nullptr);
    core::writeMetricsJsonFile(result.metrics, json_path);
    result.json = readFile(json_path);

    if (!timed)
        return result;
    if (paced) {
        const std::vector<std::int64_t> &handled = probe.stamps.at(0);
        std::vector<double> &delay = result.delay_us;
        std::vector<double> late;
        delay.reserve(n);
        late.reserve(n);
        for (std::uint64_t i = 0; i < n && i < handled.size(); ++i) {
            const std::int64_t due = start_ns +
                static_cast<std::int64_t>(static_cast<double>(i) *
                                          period_ns);
            delay.push_back(static_cast<double>(handled[i] - due) * 1e-3);
            late.push_back(static_cast<double>(pushed[i] - due) * 1e-3);
        }
        result.producer_late_p99_us = quantile(late, 0.99);
    } else {
        result.delay_us = closedLoopDelaysUs(probe, armed);
    }
    return result;
}

// ---- tune ------------------------------------------------------------

/** Every point of @p space, as the `tune` grid driver proposes them. */
std::vector<tune::Point>
gridPoints(const tune::ParameterSpace &space)
{
    return tune::makeDriver("grid", space, space.pointCount(), 0)
        ->nextBatch();
}

tune::TuneOptions
tuneOptions(const Workload &w, std::uint64_t seed, trace::TraceView view,
            bool warm)
{
    tune::TuneOptions options;
    options.base_policy = kPolicy;
    options.base_config = engineConfig(w, seed);
    options.base_seed = seed;
    options.fork_time = view.duration() / 2;
    options.warm = warm;
    options.runner.jobs = threadsFor(w);
    options.runner.pin = sim::PinMode::Off;
    return options;
}

/** The evaluator's fork hook for @p point, rebuilt from public calls. */
std::function<void(core::Engine &, std::uint32_t)>
tuneForkHook(const tune::ParameterSpace &space, const tune::Point &point,
             std::uint64_t base_seed, std::deque<LayerLedger> *ledgers)
{
    const tune::ParameterSpace::ForkOverrides overrides =
        space.forkOverrides(point);
    const std::uint64_t trial_seed =
        sim::substreamSeed(base_seed, space.pointId(point));
    return [overrides, trial_seed, ledgers](core::Engine &engine,
                                            std::uint32_t cell) {
        core::OrchestrationPolicy bundle = tune::makeTunedPolicy(
            overrides.policy.empty() ? kPolicy : overrides.policy,
            engine.config(), overrides);
        if (ledgers != nullptr)
            bundle = decorate(std::move(bundle), ledgers->emplace_back());
        engine.swapPolicy(std::move(bundle));
        if (overrides.te_percentile)
            engine.setTePercentile(*overrides.te_percentile);
        engine.reseed(sim::substreamSeed(trial_seed, cell));
    };
}

/** What one evaluate() over the grid measured. */
struct TuneResult
{
    double setup_s = 0.0;
    double evaluate_s = 0.0;
    std::size_t trials = 0;
    std::size_t snapshots = 0;
    std::vector<tune::TrialOutcome> outcomes;
};

TuneResult
evaluateGrid(const Workload &w, const Source &source, std::uint64_t seed,
             const tune::ParameterSpace &space,
             const std::vector<tune::Point> &points, bool warm,
             std::int64_t setup_start_ns)
{
    tune::TuneEvaluator evaluator(space, source.view(),
                                  tuneOptions(w, seed, source.view(), warm));

    TuneResult result;
    const std::int64_t started = nowNs();
    result.setup_s = seconds(started - setup_start_ns);
    evaluator.evaluate(points);
    result.evaluate_s = seconds(nowNs() - started);
    result.trials = evaluator.trialsRun();
    result.snapshots = evaluator.snapshotsBuilt();
    result.outcomes = evaluator.outcomes();
    return result;
}

// ---- the two run kinds -----------------------------------------------

struct Args
{
    std::string command;
    std::string workload;
    std::string dir;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::int64_t launch_ns = 0;
    /** Smoke-run overrides (0 keeps the workload's own value). */
    double scale = 0.0;
    std::size_t subtraces = 0;
};

/** Passes every run makes, whatever its budget. */
constexpr int kMinPasses = 3;

/**
 * Repeat whole passes: at least kMinPasses, then while another one still
 * fits the budget.  Every pass covers the same inputs, so per-input
 * medians over passes filter the host's second-to-second speed noise.
 */
template <typename Pass>
void
repeatPasses(double budget_s, Pass &&pass)
{
    const std::int64_t start = nowNs();
    double last = 0.0;
    for (int done = 0;; ++done) {
        if (done >= kMinPasses &&
            seconds(nowNs() - start) + last > budget_s)
            break;
        const std::int64_t t0 = nowNs();
        pass();
        last = seconds(nowNs() - t0);
    }
}

/**
 * Work and host seconds per sub-trace across passes.  The host's speed
 * noise only ever adds time, so each sub-trace's cost is its fastest
 * pass, and the composite rate is the total work over the sum of those
 * costs: the input mix stays fixed while slow passes are filtered out.
 */
class Composite
{
  public:
    explicit Composite(std::size_t inputs)
        : work_(inputs, 0.0), best_(inputs, 0.0)
    {
    }

    void add(std::size_t k, double work, double seconds)
    {
        work_[k] = work;
        if (best_[k] == 0.0 || seconds < best_[k])
            best_[k] = seconds;
    }

    double rate() const
    {
        double work = 0.0, spent = 0.0;
        for (std::size_t k = 0; k < work_.size(); ++k) {
            if (best_[k] == 0.0)
                continue;
            work += work_[k];
            spent += best_[k];
        }
        return ratio(work, spent);
    }

  private:
    std::vector<double> work_;
    std::vector<double> best_;
};

/** Charge the first set-up from process launch (when known). */
class SetupClock
{
  public:
    explicit SetupClock(std::int64_t launch_ns) : launch_ns_(launch_ns) {}

    /** Start of a set-up; thread-safe. */
    std::int64_t start()
    {
        const std::int64_t now = nowNs();
        const bool first = !started_.exchange(true);
        return first && launch_ns_ > 0 && launch_ns_ < now ? launch_ns_
                                                           : now;
    }

  private:
    std::int64_t launch_ns_;
    std::atomic<bool> started_{false};
};

void
measureEndToEnd(const Workload &w, const Args &args, Report &report,
                Ledger &ops)
{
    SetupClock setup_clock(args.launch_ns);
    std::vector<double> setup;
    Composite rate(w.subtraces);
    const unsigned threads = threadsFor(w);
    std::unique_ptr<sim::ThreadPool> pool;
    if (w.cells > 1 && threads > 1)
        pool = std::make_unique<sim::ThreadPool>(threads);

    const auto jsonPath = [&args](std::size_t k) {
        return args.dir + "/run" + std::to_string(k) + ".json";
    };
    if (w.name == "replay-pressured" || w.name == "replay-sharded-roomy") {
        // Single-cell replays run side by side, one per thread; a sharded
        // replay spends its threads on its cells instead.
        const unsigned jobs = w.cells > 1 ? 1 : threads;
        repeatPasses(args.seconds, [&] {
            std::vector<ReplayResult> results(w.subtraces);
            const std::vector<char> ok = attemptEach(
                w.subtraces, jobs, w.name + " replay", ops,
                [&](std::size_t k, std::uint64_t &n) {
                    const std::int64_t t0 = setup_clock.start();
                    const Source source = acquire(w, args.dir, args.seed, k);
                    n = source.view().requestCount();
                    results[k] = replay(
                        source, engineConfig(w, subSeed(args.seed, k)),
                        pool.get(), jsonPath(k), t0);
                    return results[k].metrics.total() == n;
                });
            for (std::size_t k = 0; k < w.subtraces; ++k) {
                if (!ok[k])
                    continue;
                setup.push_back(results[k].setup_s);
                rate.add(k, static_cast<double>(results[k].requests),
                         results[k].run_s);
            }
        });
    } else if (w.name == "live-paced") {
        // Once per run: a live stream must reproduce the untimed
        // trace-driven replay of the same trace and configuration.
        ops.attempt("live stream vs replay", [&](std::uint64_t &n) {
            const Source source = acquire(w, args.dir, args.seed, 0);
            n = source.view().requestCount();
            const core::EngineConfig config =
                engineConfig(w, subSeed(args.seed, 0));
            const LiveResult streamed =
                stream(source, config, 0.0, false, jsonPath(0), nowNs());
            return streamed.metrics.total() == n &&
                replay(source, config, nullptr, jsonPath(0), nowNs()).json ==
                streamed.json;
        });
        // Capacity: every sub-trace streamed unpaced into admit(), two
        // streams (a producer and a consumer thread each) side by side.
        const unsigned jobs = std::max(1u, threads / 2);
        repeatPasses(args.seconds, [&] {
            std::vector<LiveResult> results(w.subtraces);
            const std::vector<char> ok = attemptEach(
                w.subtraces, jobs, "live stream", ops,
                [&](std::size_t k, std::uint64_t &n) {
                    const std::int64_t t0 = setup_clock.start();
                    const Source source = acquire(w, args.dir, args.seed, k);
                    n = source.view().requestCount();
                    results[k] = stream(
                        source, engineConfig(w, subSeed(args.seed, k)), 0.0,
                        false, jsonPath(k), t0);
                    return results[k].metrics.total() == n;
                });
            for (std::size_t k = 0; k < w.subtraces; ++k) {
                if (!ok[k])
                    continue;
                setup.push_back(results[k].setup_s);
                rate.add(k, static_cast<double>(results[k].stats.admitted),
                         results[k].stats.wall_seconds);
            }
        });
    } else if (w.name == "tune-warm-fork") {
        const tune::ParameterSpace space =
            tune::ParameterSpace::parse(kTuneSpace);
        const std::vector<tune::Point> points = gridPoints(space);
        bool checked = false;
        repeatPasses(args.seconds, [&] {
            for (std::size_t k = 0; k < w.subtraces; ++k) {
                const std::uint64_t seed = subSeed(args.seed, k);
                TuneResult r;
                const bool ok = ops.attempt(
                    "tune grid " + std::to_string(k), [&](std::uint64_t &n) {
                        n = points.size();
                        const std::int64_t t0 = setup_clock.start();
                        const Source source =
                            acquire(w, args.dir, args.seed, k);
                        r = evaluateGrid(w, source, seed, space, points, true,
                                         t0);
                        if (r.trials != n)
                            return false;
                        for (const tune::TrialOutcome &o : r.outcomes)
                            if (o.metrics.total() !=
                                source.view().requestCount())
                                return false;
                        if (checked)
                            return true;
                        // Once per run: one warm-forked trial against its
                        // cold replay.
                        checked = true;
                        const TuneResult cold = evaluateGrid(
                            w, source, seed, space, {points.front()}, false,
                            nowNs());
                        return metricsJson(cold.outcomes.at(0).metrics) ==
                            metricsJson(r.outcomes.at(0).metrics);
                    });
                if (!ok)
                    continue;
                setup.push_back(r.setup_s);
                rate.add(k, static_cast<double>(r.trials), r.evaluate_s);
            }
        });
    }

    report.set("setup_s", median(setup), "s");
    report.set("throughput_per_s", rate.rate(), "1/s");
    report.set("peak_rss_mb", peakRssMb(), "MB");
}

/** Fill the live.* metrics from one unpaced (and maybe paced) stream. */
void
reportLive(Report &report, const LiveResult &unpaced, const LiveResult *paced)
{
    const live::LiveStats &admit = paced ? paced->stats : unpaced.stats;
    report.set("live.admit_ns_p50",
               static_cast<double>(admit.decision_ns.percentile(0.5)), "ns");
    report.set("live.admit_ns_p99",
               static_cast<double>(admit.decision_ns.percentile(0.99)), "ns");
    report.set("live.admit_ns_max",
               static_cast<double>(admit.decision_ns.maxValue()), "ns");
    report.set("live.admit_share",
               ratio(unpaced.stats.decision_ns.mean() *
                         static_cast<double>(unpaced.stats.decision_ns.count()),
                     unpaced.stats.wall_seconds * 1e9),
               "ratio");
    const std::vector<double> &delay =
        paced ? paced->delay_us : unpaced.delay_us;
    report.set("live.delay_p50_us", quantile(delay, 0.5), "us");
    report.set("live.delay_p99_us", quantile(delay, 0.99), "us");
    report.set("live.producer_late_p99_us",
               paced ? paced->producer_late_p99_us : 0.0, "us");
    report.set("live.backpressure",
               static_cast<double>(unpaced.backpressure), "count");
    report.set("live.reordered",
               static_cast<double>(unpaced.stats.reordered), "count");
    report.set("live.rss_bytes_per_request", unpaced.rss_bytes_per_request,
               "B");
}

double
nsPerCall(const ::perfbench::HookCost &cost)
{
    return ratio(static_cast<double>(cost.ns), static_cast<double>(cost.calls));
}

double
share(std::uint64_t part, std::uint64_t whole)
{
    return ratio(static_cast<double>(part), static_cast<double>(whole));
}

void
reportReplayLayers(Report &report, const SplitReplay &t,
                   double untraced_step_s, unsigned threads,
                   double untraced_serial_s)
{
    const LayerLedger &l = t.ledger;
    const double stepping = static_cast<double>(t.steppingNs());
    const double events = static_cast<double>(t.events());
    report.set("keepalive.reclaim_calls",
               static_cast<double>(l.reclaim.calls), "count");
    report.set("keepalive.reclaim_ns_per_call", nsPerCall(l.reclaim), "ns");
    report.set("keepalive.plan_sufficient_ratio",
               share(l.reclaim_sufficient, l.reclaim.calls), "ratio");
    report.set("keepalive.hook_calls",
               static_cast<double>(l.keepalive_hooks.calls), "count");
    report.set("keepalive.hook_ns_per_call", nsPerCall(l.keepalive_hooks),
               "ns");
    report.set("keepalive.expire_ns_per_tick", nsPerCall(l.expire), "ns");
    report.set("scaling.calls", static_cast<double>(l.scaling.calls),
               "count");
    report.set("scaling.ns_per_call", nsPerCall(l.scaling), "ns");
    report.set("scaling.speculative_share",
               share(l.speculative, l.scaling.calls), "ratio");
    report.set("scaling.spec_reuse_ratio",
               share(l.spec_reused, l.spec_outcomes), "ratio");
    report.set("scaling.hook_ns_per_call", nsPerCall(l.scaling_hooks), "ns");
    report.set("engine.events", events, "count");
    report.set("engine.ns_per_event",
               ratio(stepping - static_cast<double>(l.hookNs()), events),
               "ns");
    report.set("engine.policy_share",
               ratio(static_cast<double>(l.policyNs()), stepping), "ratio");

    std::vector<double> cell_ms, cell_events;
    for (const std::int64_t ns : t.cell_ns)
        cell_ms.push_back(millis(ns));
    for (const std::uint64_t n : t.cell_events)
        cell_events.push_back(static_cast<double>(n));
    const auto maxOverMean = [](const std::vector<double> &v) {
        double sum = 0.0, max = 0.0;
        for (const double x : v) {
            sum += x;
            max = std::max(max, x);
        }
        return ratio(max * static_cast<double>(v.size()), sum);
    };
    report.set("shard.begin_ms", millis(t.begin_ns), "ms");
    report.set("shard.cell_ms_max_over_mean", maxOverMean(cell_ms), "ratio");
    report.set("shard.cell_events_max_over_mean", maxOverMean(cell_events),
               "ratio");
    report.set("shard.parallel_efficiency",
               ratio(seconds(t.steppingNs()),
                     static_cast<double>(threads) * untraced_step_s),
               "ratio");
    report.set("shard.finish_ms", millis(t.finish_ns), "ms");
    report.set("metrics_io.write_ms", millis(t.write_ns), "ms");
    report.set("checkpoint.save_ms", millis(t.save_ns), "ms");
    report.set("checkpoint.restore_ms", millis(t.restore_ns), "ms");
    report.set("checkpoint.bytes", static_cast<double>(t.checkpoint_bytes),
               "B");

    const core::RunMetrics &m = t.metrics;
    report.set("sim.evictions", static_cast<double>(m.evictions), "count");
    report.set("sim.containers_created",
               static_cast<double>(m.containers_created), "count");
    report.set("sim.deferred_provisions",
               static_cast<double>(m.deferred_provisions), "count");
    report.set("sim.wasted_cold_starts",
               static_cast<double>(m.wasted_cold_starts), "count");
    report.set("sim.overhead_ratio_pct", m.avgOverheadRatioPct(), "%");
    report.set("sim.cold_start_pct", 100.0 * m.coldRatio(), "%");
    report.set("sim.e2e_p99_ms", m.e2eHistogram().percentile(0.99) / 1e3,
               "ms");
    report.set("sim.avg_memory_gb", m.avgMemoryGb(), "GB");

    // Tracing overhead: the same serial replay, decorated vs not.
    const double requests = static_cast<double>(m.total());
    const double untraced_rate = ratio(requests, untraced_serial_s);
    const double traced_rate = ratio(requests, t.replaySeconds());
    report.set("tracing.overhead_pct",
               100.0 * ratio(untraced_rate - traced_rate, untraced_rate), "%");
}

void
measureLayers(const Workload &w, const Args &args, Report &report, Ledger &ops)
{
    const std::string json_path = args.dir + "/traced.json";
    const std::string ref_path = args.dir + "/reference.json";
    const unsigned threads = threadsFor(w);
    const std::uint64_t seed0 = subSeed(args.seed, 0);
    const core::EngineConfig config0 = engineConfig(w, seed0);

    // trace layer: generate sub-trace 0 in-process, write it as an
    // image (untimed), open the image.
    trace::Trace generated;
    {
        std::int64_t t0 = nowNs();
        generated = generateSub(w, args.seed, 0);
        report.set("trace.generate_ms", millis(nowNs() - t0), "ms");
        const std::string probe_path = args.dir + "/probe.ctrb";
        trace::writeTraceImageFile(generated, probe_path);
        t0 = nowNs();
        const trace::TraceImage image = trace::TraceImage::open(probe_path);
        report.set("trace.open_ms", millis(nowNs() - t0), "ms");
        std::remove(probe_path.c_str());
    }
    Source source;
    if (w.image)
        source.image.emplace(trace::TraceImage::open(imagePath(args.dir, 0)));
    else
        source.generated.emplace(std::move(generated));
    const trace::TraceView view = source.view();
    const std::uint64_t requests = view.requestCount();

    // Reference: the workload's own untraced execution of sub-trace 0.
    std::string reference;
    double untraced_step_s = 0.0;
    std::unique_ptr<sim::ThreadPool> pool;
    if (w.cells > 1 && threads > 1)
        pool = std::make_unique<sim::ThreadPool>(threads);

    // Live streams carry the ArrivalClock, so their replays do too.
    const bool clock = w.name == "live-paced";
    if (w.name == "live-paced") {
        LiveResult paced, unpaced;
        ops.attempt("live paced stream", [&](std::uint64_t &n) {
            n = requests;
            paced = stream(source, config0, kLivePaceReqPerSec, true, ref_path,
                           nowNs());
            reference = paced.json;
            return paced.metrics.total() == requests;
        });
        ops.attempt("live unpaced stream", [&](std::uint64_t &n) {
            n = requests;
            unpaced = stream(source, config0, 0.0, true, json_path, nowNs());
            return unpaced.json == reference;
        });
        reportLive(report, unpaced, &paced);
    } else if (w.name == "tune-warm-fork") {
        const tune::ParameterSpace space =
            tune::ParameterSpace::parse(kTuneSpace);
        const std::vector<tune::Point> points = gridPoints(space);
        TuneResult warm;
        ops.attempt("tune grid", [&](std::uint64_t &n) {
            n = points.size();
            warm = evaluateGrid(w, source, seed0, space, points, true,
                                nowNs());
            const TuneResult cold = evaluateGrid(
                w, source, seed0, space, {points.front()}, false, nowNs());
            reference = metricsJson(warm.outcomes.at(0).metrics);
            return metricsJson(cold.outcomes.at(0).metrics) == reference;
        });
        report.set("tune.trials_run", static_cast<double>(warm.trials),
                   "count");
        report.set("tune.snapshots_built",
                   static_cast<double>(warm.snapshots), "count");
        report.set("tune.ms_per_trial",
                   1e3 * ratio(warm.evaluate_s,
                               static_cast<double>(warm.trials)),
                   "ms");
        // The driver's own fork of grid point 0: its shape baked into
        // the config, its fork knobs applied at the fork boundary.
        const tune::TuneOptions options =
            tuneOptions(w, seed0, view, true);
        core::EngineConfig config = options.base_config;
        space.applyShape(points.front(), config);
        config.validate();
        SplitReplay untraced, traced;
        std::deque<LayerLedger> fork_ledgers;
        ops.attempt("tune fork untraced", [&](std::uint64_t &n) {
            n = requests;
            untraced = splitReplay(
                view, config, false, options.fork_time,
                tuneForkHook(space, points.front(), options.base_seed,
                             nullptr),
                false, json_path);
            return untraced.json == reference;
        });
        ops.attempt("tune fork traced", [&](std::uint64_t &n) {
            n = requests;
            traced = splitReplay(
                view, config, false, options.fork_time,
                tuneForkHook(space, points.front(), options.base_seed,
                             &fork_ledgers),
                true, json_path);
            for (const LayerLedger &l : fork_ledgers)
                traced.ledger.add(l);
            return traced.json == reference;
        });
        reportReplayLayers(report, traced, untraced.replaySeconds(), 1,
                           untraced.replaySeconds());
    } else {
        ReplayResult untimed;
        ops.attempt("reference replay", [&](std::uint64_t &n) {
            n = requests;
            untimed = replay(source, config0, pool.get(), ref_path, nowNs());
            reference = untimed.json;
            untraced_step_s = untimed.step_s;
            return untimed.metrics.total() == requests;
        });
    }

    if (w.name != "tune-warm-fork") {
        // Split at the trace's midpoint by the checkpoint round trip.
        const sim::SimTime middle = view.duration() / 2;
        SplitReplay untraced, traced;
        ops.attempt("checkpointed replay untraced", [&](std::uint64_t &n) {
            n = requests;
            untraced = splitReplay(view, config0, clock, middle, nullptr,
                                   false, json_path);
            return untraced.json == reference;
        });
        ops.attempt("checkpointed replay traced", [&](std::uint64_t &n) {
            n = requests;
            traced = splitReplay(view, config0, clock, middle, nullptr, true,
                                 json_path);
            return traced.json == reference;
        });
        if (w.name == "live-paced")
            untraced_step_s = untraced.replaySeconds();
        reportReplayLayers(report, traced, untraced_step_s,
                           pool ? threads : 1, untraced.replaySeconds());
    }

    if (w.name != "live-paced") {
        // The live layer on this workload's configuration: the same
        // trace streamed unpaced through the ring into admit().
        LiveResult unpaced;
        ops.attempt("live probe", [&](std::uint64_t &n) {
            n = requests;
            unpaced = stream(source, config0, 0.0, true, json_path, nowNs());
            return unpaced.metrics.total() == requests;
        });
        reportLive(report, unpaced, nullptr);
    }
    if (w.name != "tune-warm-fork") {
        report.set("tune.trials_run", 0.0, "count");
        report.set("tune.snapshots_built", 0.0, "count");
        report.set("tune.ms_per_trial", 0.0, "ms");
    }
}

// ---- entry -----------------------------------------------------------

std::string
buildInfo()
{
    std::string info = PERFBENCH_BUILD_TYPE;
    info += ", ";
    info += PERFBENCH_CXX_COMPILER;
    const std::string flags = PERFBENCH_CXX_FLAGS;
    if (!flags.empty() && flags != " ")
        info += "," + flags;
    return info;
}

std::string
envJson(const Args &args)
{
    const sim::CpuTopology topology = sim::CpuTopology::detect();
    std::ostringstream out;
    out << "{\"env\": {\"workload\": \"" << args.workload
        << "\", \"seed\": " << args.seed << ", \"trace\": " << args.trace
        << ", \"build\": \"" << buildInfo() << "\", \"nproc\": "
        << availableCpus() << ", \"online_cpus\": " << topology.cpus.size()
        << ", \"physical_cores\": " << topology.physicalCores()
        << ", \"smt\": " << (topology.smt() ? "true" : "false")
        << ", \"numa_nodes\": " << topology.numaNodes() << "}}";
    return out.str();
}

int
prepare(const Workload &w, const Args &args)
{
    if (!w.image)
        return 0;
    for (std::size_t k = 0; k < w.subtraces; ++k)
        trace::writeTraceImageFile(generateSub(w, args.seed, k),
                                   imagePath(args.dir, k));
    return 0;
}

int
measure(const Workload &w, const Args &args)
{
    Report report;
    Ledger ops;
    if (args.trace != 0)
        measureLayers(w, args, report, ops);
    else
        measureEndToEnd(w, args, report, ops);

    std::cout << "perfbench " << w.name << " seed " << args.seed
              << (args.trace != 0 ? " (traced)" : "") << ": "
              << ops.attempted << " ops, " << ops.failed << " failed\n";
    report.printHuman(std::cout);
    std::cout << envJson(args) << '\n';
    std::cout << "{\"correct\": " << (ops.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << ops.attempted
              << ", \"failed\": " << ops.failed
              << ", \"metrics\": " << report.json() << "}" << std::endl;
    return 0;
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::invalid_argument("usage: perfbench_driver prepare|measure "
                                    "--workload W --seed S --dir D ...");
    Args args;
    args.command = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--dir")
            args.dir = value;
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = std::stoi(value);
        else if (key == "--launch-ns")
            args.launch_ns = std::stoll(value);
        else if (key == "--scale")
            args.scale = std::stod(value);
        else if (key == "--subtraces")
            args.subtraces = std::stoul(value);
        else
            throw std::invalid_argument("unknown option " + key);
    }
    if (args.dir.empty())
        throw std::invalid_argument("--dir is required");
    return args;
}

} // namespace
} // namespace cidre::perfbench_driver

int
main(int argc, char **argv)
{
    using namespace cidre::perfbench_driver;
    // A fixed mmap threshold: glibc otherwise raises it after each large
    // free, so whether a big vector lands on the heap (and stays
    // resident) would depend on the allocation history, and peak RSS
    // would wander by 10-20% between otherwise identical runs.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    try {
        const Args args = parseArgs(argc, argv);
        const auto &all = workloads();
        const auto found =
            std::find_if(all.begin(), all.end(), [&](const Workload &w) {
                return w.name == args.workload;
            });
        if (found == all.end())
            throw std::invalid_argument("unknown workload " + args.workload);
        Workload workload = *found;
        if (args.scale > 0.0)
            workload.scale = args.scale;
        if (args.subtraces > 0)
            workload.subtraces = args.subtraces;
        if (args.command == "prepare")
            return prepare(workload, args);
        if (args.command == "measure")
            return measure(workload, args);
        throw std::invalid_argument("unknown command " + args.command);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << '\n';
        return 2;
    }
}

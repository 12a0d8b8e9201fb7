#include "exp/runner.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/checkpoint.h"
#include "core/sharded_engine.h"
#include "exp/telemetry.h"
#include "policies/registry.h"
#include "sim/rng.h"
#include "sim/serialize.h"

namespace cidre::exp {

namespace {

/** The engine of @p spec on @p config: its policy, one per cell. */
core::ShardedEngine
makeEngine(const TrialSpec &spec, const core::EngineConfig &config)
{
    return core::ShardedEngine(
        spec.workload, config,
        [&spec](const core::EngineConfig &cell_config) {
            return policies::makePolicy(spec.policy, cell_config);
        });
}

/** Simulate the prefix [0, fork_time) from t=0, cells on @p pool. */
void
simulatePrefix(core::ShardedEngine &engine, const TrialSpec &spec,
               sim::ThreadPool *pool)
{
    engine.begin(pool);
    if (spec.fork_time > 0)
        engine.stepUntil(spec.fork_time, pool);
}

} // namespace

unsigned
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
}

void
parallelFor(unsigned jobs, std::size_t count,
            const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs == 0 ? defaultJobs() : jobs, count));
    sim::ThreadPool pool(workers);
    pool.parallelFor(count, body);
}

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(options)
{
    const unsigned jobs =
        options_.jobs == 0 ? defaultJobs() : options_.jobs;
    // Shard threads come out of the --jobs budget, so they never exceed
    // it: with shards > jobs the outer width floors at one slot but
    // that slot's inner pool would still be `shards` wide, blowing the
    // documented total.  Clamping is free of semantic risk — shard
    // thread count is a pure wall-clock knob.
    shard_threads_ = std::min(std::max(1u, options_.shards), jobs);
    const unsigned outer = std::max(1u, jobs / shard_threads_);

    // Pin shard threads only when there is exactly one shard team:
    // concurrent teams resolved against the same physical-core order
    // would stack onto the same CPUs.  A single team pinned one thread
    // per physical core is the topology-honest layout.
    std::vector<int> pin_cpus;
    if (options_.pin != sim::PinMode::Off && shard_threads_ > 1 &&
        outer == 1) {
        pin_cpus = sim::resolvePinCpus(
            options_.pin, sim::CpuTopology::detect(), shard_threads_);
    }

    outer_pool_ = std::make_unique<sim::ThreadPool>(outer);
    if (shard_threads_ > 1) {
        inner_pools_.reserve(outer);
        for (unsigned slot = 0; slot < outer; ++slot)
            inner_pools_.push_back(std::make_unique<sim::ThreadPool>(
                shard_threads_, pin_cpus));
    }
}

ExperimentRunner::~ExperimentRunner() = default;

unsigned
ExperimentRunner::outerThreads() const
{
    return outer_pool_->threadCount();
}

void
ExperimentRunner::forEachSpec(const std::vector<TrialSpec> &specs,
                              const SpecBody &body)
{
    outer_pool_->parallelFor(
        specs.size(), [&](std::size_t i, unsigned slot) {
            if (!specs[i].workload.valid()) {
                throw std::invalid_argument(
                    "ExperimentRunner: spec " + std::to_string(i) + " (" +
                    specs[i].label + ") has no workload");
            }
            body(i, inner_pools_.empty() ? nullptr
                                         : inner_pools_[slot].get());
        });
}

std::vector<TrialResult>
ExperimentRunner::run(const std::vector<TrialSpec> &specs)
{
    std::vector<TrialResult> results(specs.size());
    ProgressReporter progress(options_.progress, specs.size());

    forEachSpec(specs, [&](std::size_t i, sim::ThreadPool *pool) {
        const TrialSpec &spec = specs[i];
        const auto started = std::chrono::steady_clock::now();

        // Fork-protocol trials keep config.seed as given: the seed is
        // part of the warm snapshot's fingerprint, so trials of one
        // equivalence class must construct identically; their
        // per-trial substream is injected by at_fork instead (keyed by
        // the stable trial id).  Every other trial runs on its
        // substream: cell c of trial t on
        // substreamSeed(substreamSeed(base, t), c).
        core::EngineConfig config = spec.config;
        if (spec.fork_time == 0 && spec.at_fork == nullptr)
            config.seed = sim::substreamSeed(spec.base_seed, spec.trial_index);

        // Warm path: restore the prefix snapshot.  Cold path: simulate
        // the prefix (none when fork_time is 0).  Both then apply the
        // identical fork hook, so their suffixes are bit-identical.
        TrialResult &result = results[i];
        core::ShardedEngine engine = makeEngine(spec, config);
        if (spec.warm) {
            sim::StateReader reader(core::openCheckpointBuffer(
                *spec.warm, spec.warm_fingerprint));
            engine.loadState(reader);
        } else {
            simulatePrefix(engine, spec, pool);
        }
        if (spec.at_fork)
            engine.forEachCell(spec.at_fork);
        result.metrics = engine.finish(pool);
        result.events_executed = engine.eventsExecuted();
        result.spec_index = i;
        result.label = spec.label;
        result.seed = config.seed;
        result.wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - started)
                             .count();
        progress.trialDone(result.label, result.wall_ms,
                           result.events_executed);
    });
    return results;
}

std::vector<std::shared_ptr<const core::CheckpointBuffer>>
ExperimentRunner::snapshots(const std::vector<TrialSpec> &specs)
{
    std::vector<std::shared_ptr<const core::CheckpointBuffer>> buffers(
        specs.size());
    forEachSpec(specs, [&](std::size_t i, sim::ThreadPool *pool) {
        const TrialSpec &spec = specs[i];
        core::ShardedEngine engine = makeEngine(spec, spec.config);
        simulatePrefix(engine, spec, pool);
        sim::StateWriter writer;
        engine.saveState(writer);
        buffers[i] = std::make_shared<const core::CheckpointBuffer>(
            core::makeCheckpointBuffer(
                core::checkpointFingerprint(spec.config, spec.policy,
                                            spec.workload),
                writer.release()));
    });
    return buffers;
}

core::RunMetrics
mergedMetrics(const std::vector<TrialResult> &results)
{
    if (results.empty())
        throw std::invalid_argument("mergedMetrics: no trial results");
    core::RunMetrics merged = results.front().metrics;
    for (std::size_t i = 1; i < results.size(); ++i)
        merged.merge(results[i].metrics);
    return merged;
}

} // namespace cidre::exp

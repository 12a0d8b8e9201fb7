/**
 * @file
 * Parallel experiment runner: fan independent trials across a fixed
 * pool of worker threads with deterministic results.
 *
 * Every figure of the paper is a sweep — policies × traces × seeds ×
 * knobs — of *independent* simulations (each core::Engine owns its
 * event queue, RNG, cluster and metrics), so trial-level parallelism
 * is safe as long as three rules hold, and this module enforces them:
 *
 *  1. **Inputs are immutable.**  Trials share views of sealed traces
 *     (in-memory or mmapped) read-only; nothing else is shared.
 *  2. **Randomness is keyed by identity.**  A trial's RNG seed is
 *     derived as sim::substreamSeed(base_seed, trial_index), where
 *     trial_index is a *stable* trial id — a pure function of what the
 *     trial is (its position in a static sweep, a parameter-assignment
 *     hash in a dynamic search), never of scheduling order, enqueue
 *     order or thread id.
 *  3. **Reduction is ordered.**  Results land in a pre-sized vector at
 *     their submission index and mergedMetrics() folds them strictly in
 *     that order, so aggregate output is bit-identical for any job
 *     count (--jobs 1 == --jobs 8, byte for byte).
 *
 * Scheduling is sim::ThreadPool's single atomic claim counter — no work
 * stealing, no per-thread queues.  Claim order may vary between runs;
 * results never do.
 *
 * ## Nested parallelism (jobs × shards)
 *
 * Every trial runs through core::ShardedEngine (one cell passes straight
 * through to core::Engine) on its one driver: begin (or a warm restore),
 * an optional step to the fork boundary, then finish.  A trial whose
 * EngineConfig::shard_cells exceeds 1 fans its cells across threads.
 * The runner owns both layers: shards is first clamped to jobs, then a
 * reusable outer pool of max(1, jobs / shards) threads fans trials, and
 * each outer slot owns a private inner pool of `shards` threads that
 * its trials' cells run on, keeping the total thread count within the
 * `jobs` budget (outer × shards <= jobs).  With a single outer slot the
 * inner pool is built with the `--pin` list, so its threads are placed
 * one per physical core; the engine itself never pins.  Shard threads
 * and their placement are a pure wall-clock knob — ShardedEngine
 * guarantees bit-identical metrics for any pool — so the determinism
 * contract above is unchanged: results depend on specs alone, never on
 * jobs, shards or pinning.
 */

#ifndef CIDRE_EXP_RUNNER_H
#define CIDRE_EXP_RUNNER_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "sim/thread_pool.h"
#include "sim/time.h"
#include "sim/topology.h"
#include "trace/trace_view.h"

namespace cidre::core {
class Engine;
struct CheckpointBuffer;
} // namespace cidre::core

namespace cidre::exp {

/** One independent simulation to run (a point of a sweep). */
struct TrialSpec
{
    /** Display label for progress lines, e.g. "cidre/t3". */
    std::string label;

    /**
     * View of the sealed workload, shared read-only; the backing Trace
     * or TraceImage must outlive the run() call.  Trials replaying
     * different traces simply view different (pre-generated) backing
     * stores — a whole sweep can share one mmapped image with zero
     * copies.  Assign a Trace lvalue directly (implicit conversion).
     */
    trace::TraceView workload;

    /** Policy registry name ("cidre", "faascache", ...). */
    std::string policy;

    /**
     * Engine configuration for this trial.  For ordinary trials
     * config.seed is ignored: the runner overwrites it with the derived
     * substream seed.  For fork-protocol trials (see below) config.seed
     * is used *as given* — it is part of the warm snapshot's
     * fingerprint, so every trial of an equivalence class must share
     * it; per-trial randomness is injected at the fork instead.
     */
    core::EngineConfig config;

    /** Sweep-wide base seed; pair with trial_index for the substream. */
    std::uint64_t base_seed = 42;

    /**
     * Substream key: a STABLE identifier of the trial, not its
     * submission position.  For static sweeps (run/compare) the
     * position is a stable id, so using it is fine; dynamic drivers
     * (simulated annealing, random search) must key this by trial
     * *identity* (e.g. a hash of the parameter assignment) so the
     * random stream a trial sees never depends on the order trials
     * happened to be enqueued — that is what keeps search sweeps
     * bit-reproducible across `--jobs` and across driver scheduling
     * changes.
     */
    std::uint64_t trial_index = 0;

    // ---- fork protocol (tune sweeps) ----------------------------------
    //
    // A fork-protocol trial (fork_time > 0 or at_fork set) simulates a
    // warm-up prefix [0, fork_time) under the spec's base policy and
    // config, then applies the trial's parameter overrides through
    // at_fork at the fork boundary, then runs to completion.  When a
    // warm snapshot is supplied the prefix is *restored* instead of
    // simulated; both paths then apply the identical fork hook, so the
    // warm-forked metrics are bit-identical to the cold run's (pinned
    // by the warm-equivalence goldens).

    /**
     * Simulated time of the fork boundary; 0 with no at_fork hook means
     * an ordinary (non-fork) trial.
     */
    sim::SimTime fork_time = 0;

    /**
     * Warm snapshot of the prefix: engine state saved at fork_time by a
     * run with this spec's config and policy (what
     * ExperimentRunner::snapshots() builds).  Null = cold path
     * (simulate the prefix).  Shared read-only across the trials of an
     * equivalence class.
     */
    std::shared_ptr<const core::CheckpointBuffer> warm;

    /** Expected fingerprint of the warm snapshot (validation). */
    std::uint64_t warm_fingerprint = 0;

    /**
     * Applied to every cell engine at the fork boundary (cell 0 of a
     * single-cell trial): swap the policy bundle, reseed the per-trial
     * RNG substream, mutate fork-safe knobs.  Must be a pure function
     * of the spec (no shared mutable state) — it runs on a worker
     * thread.
     */
    std::function<void(core::Engine &, std::uint32_t)> at_fork;
};

/** Outcome of one trial, stored at its submission index. */
struct TrialResult
{
    std::size_t spec_index = 0;
    std::string label;
    /** The substream seed the engine actually ran with. */
    std::uint64_t seed = 0;
    core::RunMetrics metrics;
    /** Host wall-clock of this trial in ms (telemetry only). */
    double wall_ms = 0.0;
    /** Simulation events executed by the trial's engine. */
    std::uint64_t events_executed = 0;
};

struct RunnerOptions
{
    /** Total worker-thread budget; 0 selects defaultJobs(). */
    unsigned jobs = 0;

    /**
     * Threads applied *inside* each sharded trial (the `--shards`
     * knob); 0 and 1 both mean "run cells serially".  Clamped to the
     * effective `jobs` value so the two knobs together never exceed
     * the total thread budget.  Purely a wall-clock knob: any value
     * yields bit-identical results.  Trials with shard_cells == 1
     * ignore it.
     */
    unsigned shards = 1;

    /**
     * Stream for per-trial progress/telemetry lines (typically
     * &std::cerr); nullptr disables.  Telemetry is host-dependent and
     * therefore never printed to result streams.
     */
    std::ostream *progress = nullptr;

    /**
     * Shard-thread CPU pinning (the `--pin` knob), handed to the inner
     * pool.  Applied only when a single shard team exists (outer width
     * 1): concurrent teams pinned to the same physical-core order would
     * stack on the same CPUs and fight.  Auto additionally requires
     * enough physical cores (sim::resolvePinCpus).  Purely wall-clock.
     */
    sim::PinMode pin = sim::PinMode::Auto;
};

/** Default worker count: the hardware concurrency (at least 1). */
unsigned defaultJobs();

/**
 * Run body(0) ... body(count-1) on a transient pool of @p jobs threads
 * (0 = defaultJobs(); the pool never exceeds @p count).  Blocks until
 * every index ran.  If bodies throw, the exception of the smallest
 * failing index is rethrown after the pool drains.
 *
 * One-shot convenience over sim::ThreadPool; code that dispatches many
 * loops (sweeps, stepped shards) should hold a pool instead —
 * ExperimentRunner does.
 */
void parallelFor(unsigned jobs, std::size_t count,
                 const std::function<void(std::size_t)> &body);

/** Fans TrialSpecs across worker threads; see the file comment. */
class ExperimentRunner
{
  public:
    /** Spawns the reusable outer/inner pools per the jobs×shards split. */
    explicit ExperimentRunner(RunnerOptions options = {});

    ~ExperimentRunner();

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    /**
     * Run every spec and return results indexed by submission order.
     * Rethrows the first (by submission index) trial failure.  Reuses
     * the owned pools across calls (threads spawn once per runner, not
     * per trial or per call).
     */
    std::vector<TrialResult> run(const std::vector<TrialSpec> &specs);

    /**
     * Simulate the warm-up prefix [0, fork_time) of every spec under
     * its own config (seed as given), policy and workload, and freeze
     * each into a sealed in-memory checkpoint, returned in submission
     * order.  Specs fan across the outer pool like run()'s trials, and
     * each build steps its cells on its slot's inner pool exactly as
     * run() steps a cold fork trial's prefix.  A snapshot depends on
     * its spec alone, never on the thread that built it, so a buffer
     * restored as TrialSpec::warm (with fingerprint
     * core::checkpointFingerprint(config, policy, workload)) yields the
     * cold trial's metrics byte for byte.  at_fork, warm, base_seed
     * and trial_index are ignored.  Rethrows the first (by submission
     * index) build failure.
     */
    std::vector<std::shared_ptr<const core::CheckpointBuffer>>
    snapshots(const std::vector<TrialSpec> &specs);

    /** Threads fanning trials (the outer pool). */
    unsigned outerThreads() const;
    /** Threads applied inside each sharded trial (post-clamp). */
    unsigned shardThreads() const { return shard_threads_; }

  private:
    /** Body of a fan-out: spec index and the slot's inner pool. */
    using SpecBody = std::function<void(std::size_t, sim::ThreadPool *)>;

    /**
     * Run body over every spec on the outer pool, handing each the
     * inner pool of its slot (nullptr when cells run serially).
     * Rejects specs without a workload.
     */
    void forEachSpec(const std::vector<TrialSpec> &specs,
                     const SpecBody &body);

    RunnerOptions options_;
    unsigned shard_threads_ = 1;
    /** Fans trials; outer slot s runs its sharded cells on inner s. */
    std::unique_ptr<sim::ThreadPool> outer_pool_;
    /** One per outer slot; empty when shard_threads_ == 1. */
    std::vector<std::unique_ptr<sim::ThreadPool>> inner_pools_;
};

/**
 * Fold the trial metrics strictly in submission-index order.
 * @throws std::invalid_argument on an empty result set.
 */
core::RunMetrics mergedMetrics(const std::vector<TrialResult> &results);

} // namespace cidre::exp

#endif // CIDRE_EXP_RUNNER_H

/**
 * @file
 * Trial evaluation for `tune` sweeps: turns search-driver points into
 * fork-protocol TrialSpecs, runs them on the experiment runner, and
 * caches both results and per-class warm snapshots.
 *
 * ## The shared warm-start fast path (the perf core)
 *
 * Every trial of a tune sweep simulates the same warm-up prefix
 * [0, fork_time) under the base policy — only the suffix differs.  The
 * evaluator therefore simulates the prefix **once per equivalence
 * class** (trials agreeing on every shape knob, see
 * ParameterSpace::classKey), snapshots it into an in-memory checkpoint
 * buffer (core::CheckpointBuffer — same format and validation as .ckpt
 * files, no file I/O), and every trial of the class *forks* from the
 * snapshot: restore, apply the trial's fork knobs, run the suffix.
 *
 * evaluate() first validates every new point of the batch, so an
 * inapplicable knob throws before anything is simulated or cached.
 * Then all classes the batch needs and the snapshot cache lacks are
 * simulated together, side by side on the runner's threads
 * (exp::ExperimentRunner::snapshots), and only then do the trials run.
 * Snapshots stay cached across evaluate() calls.
 *
 * Restoring is bit-identical to simulating the prefix (the checkpoint
 * contract, pinned by the warm-equivalence goldens), and both paths
 * apply the identical fork hook, so warm-forked metrics equal cold
 * full-replay metrics byte for byte — the fast path is purely a
 * wall-clock optimization (gated at >= 3x trials/sec by
 * bench_tune_throughput).
 *
 * ## Determinism
 *
 * Results are keyed by the stable point id: the result cache, the RNG
 * substream a trial sees (substreamSeed(base_seed, point_id), re-split
 * per cell), and the reported objectives are all pure functions of the
 * point — never of batch composition, submission order or --jobs.
 */

#ifndef CIDRE_TUNE_EVALUATOR_H
#define CIDRE_TUNE_EVALUATOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "exp/runner.h"
#include "tune/search.h"
#include "tune/space.h"
#include "trace/trace_view.h"

namespace cidre::exp {
class Heartbeat;
} // namespace cidre::exp

namespace cidre::tune {

/**
 * One minimized tune objective: how the CLI names it, how the report
 * and the tune JSON label it, and how it is read off a trial's metrics.
 */
struct ObjectiveDef
{
    const char *name;     //!< CLI name (`--objectives p99-ms,gbs,...`)
    const char *json_key; //!< key of the tune JSON pareto entries
    const char *column;   //!< report table header
    int decimals;         //!< table formatting precision
    double (*value)(const core::RunMetrics &metrics);
};

/** Every selectable objective: p99-ms, gbs, cold-starts. */
const std::vector<ObjectiveDef> &objectiveRegistry();

/**
 * Resolve a comma-separated list of objective names against the
 * registry.  An empty list selects the default pair {p99-ms, gbs} —
 * the paper's latency/memory trade-off.  Throws std::invalid_argument
 * on unknown names.
 */
std::vector<ObjectiveDef> parseObjectives(const std::string &list);

struct TuneOptions
{
    /** Policy the warm-up prefix runs under (and the fork default). */
    std::string base_policy = "cidre";

    /** Engine configuration before shape knobs are applied. */
    core::EngineConfig base_config;

    /** Base seed; per-trial substreams are keyed by stable point id. */
    std::uint64_t base_seed = 42;

    /**
     * Simulated time of the fork boundary.  0 forks at t=0 (no shared
     * prefix, so nothing to snapshot); warm snapshots need > 0.
     */
    sim::SimTime fork_time = 0;

    /** Use shared warm snapshots (false = cold full replay per trial). */
    bool warm = true;

    /** Trial-parallelism knobs (jobs, shards, progress stream). */
    exp::RunnerOptions runner;

    /** Optional throttled heartbeat, ticked as batches complete. */
    exp::Heartbeat *heartbeat = nullptr;

    /** Minimized objectives; empty selects the default {p99-ms, gbs}. */
    std::vector<ObjectiveDef> objectives;
};

/** One evaluated point with its full metrics (outcomes() order). */
struct TrialOutcome
{
    Point point;
    std::uint64_t id = 0;
    std::string label;
    /** Minimized objectives, in TuneOptions::objectives order. */
    std::vector<double> objectives;
    core::RunMetrics metrics;
};

/** Evaluates search points; see the file comment. */
class TuneEvaluator
{
  public:
    /**
     * @param space    parsed parameter space (borrowed).
     * @param workload sealed trace view; its backing store must outlive
     *                 the evaluator.
     */
    TuneEvaluator(const ParameterSpace &space, trace::TraceView workload,
                  TuneOptions options);

    TuneEvaluator(const TuneEvaluator &) = delete;
    TuneEvaluator &operator=(const TuneEvaluator &) = delete;

    /**
     * Evaluate a driver batch and return observations in batch order.
     * Points already evaluated (this batch or earlier) are served from
     * the result cache without re-simulation.  Throws
     * std::invalid_argument, before simulating anything, if any new
     * point of the batch is invalid; neither cache changes then.
     */
    std::vector<Observation> evaluate(const std::vector<Point> &batch);

    /** Every distinct evaluated point, in first-evaluation order. */
    const std::vector<TrialOutcome> &outcomes() const { return outcomes_; }

    /** Warm prefix snapshots materialized (one per touched class). */
    std::size_t snapshotsBuilt() const { return snapshots_built_; }

    /** Engine executions performed (cache hits excluded). */
    std::size_t trialsRun() const { return trials_run_; }

  private:
    /** The validated cold fork spec of @p point (simulates nothing). */
    exp::TrialSpec makeSpec(const Point &point, std::uint64_t id);

    /**
     * Point every spec at its class's warm snapshot, building all the
     * missing ones in one runner call.  @p points[k] is specs[k]'s point.
     */
    void attachSnapshots(std::vector<exp::TrialSpec> &specs,
                         const std::vector<const Point *> &points);

    const ParameterSpace &space_;
    trace::TraceView workload_;
    TuneOptions options_;
    exp::ExperimentRunner runner_;

    std::vector<TrialOutcome> outcomes_;
    /** Point id -> index into outcomes_. */
    std::unordered_map<std::uint64_t, std::size_t> by_id_;
    /** Class key -> shared warm snapshot. */
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const core::CheckpointBuffer>>
        snapshots_;
    std::size_t snapshots_built_ = 0;
    std::size_t trials_run_ = 0;
};

} // namespace cidre::tune

#endif // CIDRE_TUNE_EVALUATOR_H

#include "tune/evaluator.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "exp/telemetry.h"
#include "sim/rng.h"

namespace cidre::tune {

namespace {

/** Trials dispatched per runner call between heartbeat ticks. */
constexpr std::size_t kDispatchChunk = 32;

double
objectiveP99Ms(const core::RunMetrics &metrics)
{
    return metrics.e2eHistogram().percentile(0.99) / 1e3;
}

double
objectiveGbSeconds(const core::RunMetrics &metrics)
{
    return metrics.avgMemoryGb() * sim::toSec(metrics.makespan());
}

double
objectiveColdStarts(const core::RunMetrics &metrics)
{
    return static_cast<double>(metrics.count(core::StartType::Cold));
}

std::vector<double>
objectivesOf(const core::RunMetrics &metrics,
             const std::vector<ObjectiveDef> &objectives)
{
    std::vector<double> values;
    values.reserve(objectives.size());
    for (const ObjectiveDef &objective : objectives)
        values.push_back(objective.value(metrics));
    return values;
}

} // namespace

const std::vector<ObjectiveDef> &
objectiveRegistry()
{
    static const std::vector<ObjectiveDef> registry = {
        {"p99-ms", "p99_ms", "E2E p99 ms", 2, &objectiveP99Ms},
        {"gbs", "gb_s", "GB*s", 2, &objectiveGbSeconds},
        {"cold-starts", "cold_starts", "cold starts", 0,
         &objectiveColdStarts},
    };
    return registry;
}

std::vector<ObjectiveDef>
parseObjectives(const std::string &list)
{
    if (list.empty())
        return {objectiveRegistry()[0], objectiveRegistry()[1]};
    std::vector<ObjectiveDef> selected;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string name = list.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        const auto found = std::find_if(
            objectiveRegistry().begin(), objectiveRegistry().end(),
            [&name](const ObjectiveDef &o) { return name == o.name; });
        if (found == objectiveRegistry().end()) {
            throw std::invalid_argument(
                "tune: unknown objective \"" + name +
                "\" (try p99-ms, gbs, cold-starts)");
        }
        selected.push_back(*found);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return selected;
}

TuneEvaluator::TuneEvaluator(const ParameterSpace &space,
                             trace::TraceView workload, TuneOptions options)
    : space_(space),
      workload_(workload),
      options_(std::move(options)),
      runner_(options_.runner)
{
    if (!workload_.valid())
        throw std::invalid_argument("TuneEvaluator: unbound workload view");
    if (options_.fork_time < 0)
        throw std::invalid_argument("TuneEvaluator: negative fork time");
    if (options_.objectives.empty())
        options_.objectives = parseObjectives("");
}

exp::TrialSpec
TuneEvaluator::makeSpec(const Point &point, std::uint64_t id)
{
    core::EngineConfig config = options_.base_config;
    space_.applyShape(point, config);
    config.validate();

    const ParameterSpace::ForkOverrides overrides =
        space_.forkOverrides(point);
    const std::string policy_name =
        overrides.policy.empty() ? options_.base_policy : overrides.policy;
    // Fail on inapplicable knob combinations before burning simulation
    // time on the batch (makeTunedPolicy re-runs at the fork).
    makeTunedPolicy(policy_name, config, overrides);

    exp::TrialSpec spec;
    spec.label = space_.label(point);
    spec.workload = workload_;
    spec.policy = options_.base_policy; // the prefix policy
    spec.config = config;
    spec.base_seed = options_.base_seed;
    spec.trial_index = id; // stable point id, not submission order
    spec.fork_time = options_.fork_time;

    // The per-trial stream is keyed (base_seed, point id) and re-split
    // per cell — identical on the warm and cold paths by construction.
    const std::uint64_t trial_seed =
        sim::substreamSeed(options_.base_seed, id);
    spec.at_fork = [policy_name, overrides, trial_seed](
                       core::Engine &engine, std::uint32_t cell) {
        engine.swapPolicy(
            makeTunedPolicy(policy_name, engine.config(), overrides));
        if (overrides.te_percentile)
            engine.setTePercentile(*overrides.te_percentile);
        engine.reseed(sim::substreamSeed(trial_seed, cell));
    };

    return spec;
}

void
TuneEvaluator::attachSnapshots(std::vector<exp::TrialSpec> &specs,
                               const std::vector<const Point *> &points)
{
    // Collect, in first-seen order, the shape classes the batch needs
    // and the cache lacks, and simulate all their prefixes in one
    // runner call: the classes run side by side on the runner's
    // threads instead of one after another.
    std::vector<std::uint64_t> keys(specs.size());
    std::vector<std::uint64_t> missing;
    std::vector<exp::TrialSpec> prefixes;
    for (std::size_t k = 0; k < specs.size(); ++k) {
        keys[k] = space_.classKey(*points[k]);
        if (snapshots_.count(keys[k]) == 0 &&
            std::find(missing.begin(), missing.end(), keys[k]) ==
                missing.end()) {
            missing.push_back(keys[k]);
            prefixes.push_back(specs[k]);
        }
    }
    const auto buffers = runner_.snapshots(prefixes);
    for (std::size_t j = 0; j < buffers.size(); ++j)
        snapshots_.emplace(missing[j], buffers[j]);
    snapshots_built_ += buffers.size();

    for (std::size_t k = 0; k < specs.size(); ++k) {
        exp::TrialSpec &spec = specs[k];
        spec.warm = snapshots_.at(keys[k]);
        spec.warm_fingerprint = core::checkpointFingerprint(
            spec.config, spec.policy, spec.workload);
    }
}

std::vector<Observation>
TuneEvaluator::evaluate(const std::vector<Point> &batch)
{
    // Build a spec for every point this batch has to simulate (not in
    // the result cache, not repeated within the batch) before running
    // anything: makeSpec validates, so an inapplicable knob anywhere in
    // the batch throws before any prefix runs or any cache entry
    // exists.
    std::vector<std::uint64_t> ids(batch.size());
    std::unordered_set<std::uint64_t> fresh;
    std::vector<exp::TrialSpec> specs;
    std::vector<const Point *> spec_points;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ids[i] = space_.pointId(batch[i]);
        if (by_id_.count(ids[i]) != 0 || !fresh.insert(ids[i]).second)
            continue;
        specs.push_back(makeSpec(batch[i], ids[i])); // may throw
        spec_points.push_back(&batch[i]);
    }

    if (options_.warm && options_.fork_time > 0)
        attachSnapshots(specs, spec_points);

    // Run in fixed-size chunks so long batches stay observable through
    // the heartbeat.  Chunking cannot change results: trials are
    // independent and land in the cache keyed by id.
    for (std::size_t start = 0; start < specs.size();
         start += kDispatchChunk) {
        const std::size_t count =
            std::min(kDispatchChunk, specs.size() - start);
        const std::vector<exp::TrialSpec> chunk(
            specs.begin() + static_cast<std::ptrdiff_t>(start),
            specs.begin() + static_cast<std::ptrdiff_t>(start + count));
        const std::vector<exp::TrialResult> results = runner_.run(chunk);
        for (std::size_t j = 0; j < results.size(); ++j) {
            TrialOutcome outcome;
            outcome.point = *spec_points[start + j];
            outcome.id = chunk[j].trial_index;
            outcome.label = chunk[j].label;
            outcome.metrics = results[j].metrics;
            outcome.objectives =
                objectivesOf(outcome.metrics, options_.objectives);
            by_id_.emplace(outcome.id, outcomes_.size());
            outcomes_.push_back(std::move(outcome));
            ++trials_run_;
        }
        if (options_.heartbeat != nullptr)
            options_.heartbeat->tick(outcomes_.size());
    }

    std::vector<Observation> observations(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const TrialOutcome &outcome = outcomes_[by_id_.at(ids[i])];
        observations[i].point = batch[i];
        observations[i].id = ids[i];
        observations[i].objectives = outcome.objectives;
    }
    return observations;
}

} // namespace cidre::tune

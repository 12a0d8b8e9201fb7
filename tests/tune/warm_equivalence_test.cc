/**
 * @file
 * The warm-start equivalence goldens: a trial forked from a shared
 * in-memory warm snapshot must produce metrics bit-identical to a cold
 * full replay of the same trial — single-cell and sharded — and the
 * result of a sweep must be invariant to `--jobs` because per-trial
 * RNG substreams are keyed by the stable point id, not by submission
 * order.  These tests pin the contract that makes the tune fast path a
 * pure wall-clock optimization.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/metrics_io.h"
#include "trace/generators.h"
#include "trace/trace.h"
#include "trace/trace_view.h"
#include "tune/evaluator.h"
#include "tune/search.h"
#include "tune/space.h"

namespace cidre::tune {
namespace {

const trace::Trace &
sweepTrace()
{
    static const trace::Trace trace = trace::makeAzureLikeTrace(42, 0.03);
    return trace;
}

core::EngineConfig
sweepConfig()
{
    core::EngineConfig config;
    // Generated functions can reach ~4 GB; give each worker headroom.
    config.cluster.workers = 3;
    config.cluster.total_memory_mb = 24 * 1024;
    return config;
}

/** Exact textual fingerprint of every evaluated trial, keyed by id. */
std::map<std::uint64_t, std::string>
metricsById(const TuneEvaluator &evaluator)
{
    std::map<std::uint64_t, std::string> fingerprints;
    for (const TrialOutcome &outcome : evaluator.outcomes()) {
        std::ostringstream json;
        core::writeMetricsJson(outcome.metrics, json);
        fingerprints.emplace(outcome.id, json.str());
    }
    return fingerprints;
}

/** Evaluate the full grid of @p spec and fingerprint every trial. */
std::map<std::uint64_t, std::string>
sweepFingerprint(const std::string &spec, const std::string &base_policy,
                 bool warm, unsigned jobs, std::size_t classes = 1,
                 core::EngineConfig config = sweepConfig(),
                 unsigned shards = 1)
{
    const ParameterSpace space = ParameterSpace::parse(spec);
    const trace::TraceView view(sweepTrace());

    TuneOptions options;
    options.base_policy = base_policy;
    options.base_config = config;
    options.fork_time = view.duration() / 2;
    options.warm = warm;
    options.runner.jobs = jobs;
    options.runner.shards = shards;

    TuneEvaluator evaluator(space, view, options);
    const auto driver = makeDriver("grid", space, 0, 1);
    for (;;) {
        const std::vector<Point> batch = driver->nextBatch();
        if (batch.empty())
            break;
        driver->report(evaluator.evaluate(batch));
    }
    EXPECT_EQ(evaluator.trialsRun(), space.pointCount());
    EXPECT_EQ(evaluator.snapshotsBuilt(), warm ? classes : 0u)
        << "one shared snapshot per shape class";
    return metricsById(evaluator);
}

TEST(WarmEquivalence, SingleCellWarmForkEqualsColdReplay)
{
    const std::string spec = "ttl-sec=60|300|900";
    const auto warm = sweepFingerprint(spec, "ttl", true, 1);
    const auto cold = sweepFingerprint(spec, "ttl", false, 1);
    ASSERT_EQ(warm.size(), 3u);
    EXPECT_EQ(warm, cold);
}

TEST(WarmEquivalence, ShardedWarmForkEqualsColdReplay)
{
    const std::string spec = "cip-weight=0.5|2,te-percentile=0.5|0.9";
    core::EngineConfig config = sweepConfig();
    config.cluster.workers = 4;
    config.cluster.total_memory_mb = 32 * 1024;
    config.shard_cells = 2;

    const auto cold = sweepFingerprint(spec, "cidre", false, 1, 1, config);
    ASSERT_EQ(cold.size(), 4u);
    // Serial cells, then cells stepped on a 2-thread inner pool: the
    // prefix a snapshot freezes must not depend on either.
    EXPECT_EQ(sweepFingerprint(spec, "cidre", true, 1, 1, config), cold);
    EXPECT_EQ(sweepFingerprint(spec, "cidre", true, 2, 1, config, 2), cold);
}

TEST(WarmEquivalence, MixedShapeClassesEachGetOneSnapshot)
{
    // Two cache-gb classes, so one batch builds two prefixes at once;
    // at 4 jobs they are simulated side by side.
    const std::string spec = "cache-gb=24|32,ttl-sec=60|300";
    const auto warm = sweepFingerprint(spec, "ttl", true, 4, 2);
    const auto cold = sweepFingerprint(spec, "ttl", false, 1, 2);
    ASSERT_EQ(warm.size(), 4u);
    EXPECT_EQ(warm, cold);
}

// ---- stable-id substreams (the --jobs determinism property) -------------

TEST(StableSubstreams, SweepResultsAreInvariantToJobs)
{
    const std::string spec = "ttl-sec=60|300|900,cache-gb=24|32";
    const auto serial = sweepFingerprint(spec, "ttl", true, 1, 2);
    const auto parallel = sweepFingerprint(spec, "ttl", true, 4, 2);
    ASSERT_EQ(serial.size(), 6u);
    EXPECT_EQ(serial, parallel);
}

TEST(StableSubstreams, SubmissionOrderDoesNotChangeAnyTrial)
{
    // Evaluate the same points in two different submission orders (and
    // batch shapes): every per-id result must match, because the RNG
    // substream is keyed by the stable point id alone.
    const ParameterSpace space =
        ParameterSpace::parse("ttl-sec=60|300|900");
    const trace::TraceView view(sweepTrace());

    TuneOptions options;
    options.base_policy = "ttl";
    options.base_config = sweepConfig();
    options.fork_time = view.duration() / 2;

    TuneEvaluator forward(space, view, options);
    forward.evaluate({{0}, {1}, {2}});

    TuneEvaluator reversed(space, view, options);
    reversed.evaluate({{2}});
    reversed.evaluate({{1}, {0}});

    EXPECT_EQ(metricsById(forward), metricsById(reversed));
}

TEST(EvaluatorCache, InvalidPointFailsTheBatchBeforeAnythingRuns)
{
    // The grid batch is {policy=ttl, policy=cidre}; ttl-sec does not
    // apply to cidre, so the second point is invalid.
    const ParameterSpace space =
        ParameterSpace::parse("policy=ttl|cidre,ttl-sec=60");
    const trace::TraceView view(sweepTrace());

    TuneOptions options;
    options.base_policy = "ttl";
    options.base_config = sweepConfig();
    options.fork_time = view.duration() / 2;

    TuneEvaluator evaluator(space, view, options);
    const std::vector<Point> batch =
        makeDriver("grid", space, 0, 1)->nextBatch();
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_THROW(evaluator.evaluate(batch), std::invalid_argument);
    EXPECT_EQ(evaluator.snapshotsBuilt(), 0u) << "no prefix may run";
    EXPECT_EQ(evaluator.trialsRun(), 0u);
    EXPECT_TRUE(evaluator.outcomes().empty());

    // The failed batch cached nothing, so its valid point really runs.
    const auto retry = evaluator.evaluate({batch.front()});
    EXPECT_EQ(evaluator.trialsRun(), 1u);
    EXPECT_EQ(evaluator.snapshotsBuilt(), 1u);
    ASSERT_EQ(retry.size(), 1u);
    EXPECT_EQ(retry[0].objectives.size(), 2u);
}

TEST(EvaluatorCache, RepeatedPointsDoNotRerun)
{
    const ParameterSpace space = ParameterSpace::parse("ttl-sec=60|300");
    const trace::TraceView view(sweepTrace());

    TuneOptions options;
    options.base_policy = "ttl";
    options.base_config = sweepConfig();
    options.fork_time = view.duration() / 2;

    TuneEvaluator evaluator(space, view, options);
    const auto first = evaluator.evaluate({{0}, {1}, {0}});
    const auto again = evaluator.evaluate({{1}, {0}});
    EXPECT_EQ(evaluator.trialsRun(), 2u);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(first[0].objectives, first[2].objectives);
    EXPECT_EQ(again[1].objectives, first[0].objectives);
    EXPECT_EQ(again[0].id, first[1].id);
}

} // namespace
} // namespace cidre::tune

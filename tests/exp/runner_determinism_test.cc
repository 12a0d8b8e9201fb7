/**
 * @file
 * Determinism property tests for the parallel experiment runner: the
 * merged metrics of a sweep must be bit-identical for any job count
 * and across repeated runs with the same base seed.  This is the
 * contract that makes `--jobs` a pure wall-clock knob.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/metrics_io.h"
#include "exp/runner.h"
#include "sim/rng.h"
#include "trace/generators.h"

namespace cidre {
namespace {

constexpr std::uint64_t kBaseSeed = 7;

/** Four tiny Azure-kind and four tiny FC-kind per-trial workloads. */
const std::vector<trace::Trace> &
trialWorkloads()
{
    static const std::vector<trace::Trace> workloads = [] {
        std::vector<trace::Trace> w;
        for (std::uint64_t i = 0; i < 4; ++i) {
            w.push_back(trace::makeAzureLikeTrace(
                sim::substreamSeed(kBaseSeed, i), 0.03));
        }
        for (std::uint64_t i = 4; i < 8; ++i) {
            w.push_back(trace::makeFcLikeTrace(
                sim::substreamSeed(kBaseSeed, i), 0.03));
        }
        return w;
    }();
    return workloads;
}

std::vector<exp::TrialSpec>
sweepSpecs()
{
    const auto &workloads = trialWorkloads();
    core::EngineConfig config;
    // Generated functions can reach ~4 GB, so give each of the three
    // workers comfortably more than that.
    config.cluster.workers = 3;
    config.cluster.total_memory_mb = 24 * 1024;

    std::vector<exp::TrialSpec> specs;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        exp::TrialSpec spec;
        spec.policy = i % 2 == 0 ? "cidre" : "faascache";
        spec.label = spec.policy + "/t" + std::to_string(i);
        spec.workload = trace::TraceView(workloads[i]);
        spec.config = config;
        spec.base_seed = kBaseSeed;
        spec.trial_index = i;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** Exact textual fingerprint of every trial plus the ordered merge. */
std::string
sweepFingerprint(unsigned jobs, unsigned shards = 1,
                 std::uint32_t cells = 1)
{
    exp::RunnerOptions options;
    options.jobs = jobs;
    options.shards = shards;
    exp::ExperimentRunner runner(options);
    auto specs = sweepSpecs();
    for (auto &spec : specs)
        spec.config.shard_cells = cells;
    const std::vector<exp::TrialResult> results = runner.run(specs);

    std::ostringstream fingerprint;
    for (const auto &result : results) {
        fingerprint << result.spec_index << " " << result.label << " "
                    << result.seed << " ";
        core::writeMetricsJson(result.metrics, fingerprint);
    }
    fingerprint << "merged ";
    core::writeMetricsJson(exp::mergedMetrics(results), fingerprint);
    return fingerprint.str();
}

TEST(RunnerDeterminism, BitIdenticalAcrossJobCounts)
{
    const std::string serial = sweepFingerprint(1);
    EXPECT_EQ(serial, sweepFingerprint(2));
    EXPECT_EQ(serial, sweepFingerprint(8));
}

TEST(RunnerDeterminism, BitIdenticalAcrossRepeatedRuns)
{
    EXPECT_EQ(sweepFingerprint(8), sweepFingerprint(8));
}

// Sharded trials (shard_cells > 1 fans cells across the inner pools):
// the shard thread count must be results-neutral, independently and
// jointly with the job count.
TEST(RunnerDeterminism, ShardedTrialsBitIdenticalAcrossJobsAndShards)
{
    const std::string serial = sweepFingerprint(1, 1, 3);
    EXPECT_EQ(serial, sweepFingerprint(1, 4, 3));
    EXPECT_EQ(serial, sweepFingerprint(4, 2, 3));
    EXPECT_EQ(serial, sweepFingerprint(8, 8, 3));
}

// The two knobs share one thread budget: shards clamps to jobs, so
// outer x inner never exceeds --jobs (shards=8 with jobs=4 would
// otherwise run a 1-wide outer pool over an 8-wide inner pool).
TEST(RunnerDeterminism, ShardThreadsAreClampedToTheJobsBudget)
{
    exp::RunnerOptions options;
    options.jobs = 4;
    options.shards = 8;
    const exp::ExperimentRunner clamped(options);
    EXPECT_EQ(clamped.shardThreads(), 4u);
    EXPECT_EQ(clamped.outerThreads(), 1u);

    options.jobs = 10;
    options.shards = 4;
    const exp::ExperimentRunner nested(options);
    EXPECT_EQ(nested.shardThreads(), 4u);
    EXPECT_EQ(nested.outerThreads(), 2u);
    EXPECT_LE(nested.outerThreads() * nested.shardThreads(),
              options.jobs);
}

TEST(RunnerDeterminism, ResultsLandAtSubmissionIndex)
{
    exp::RunnerOptions options;
    options.jobs = 8;
    const std::vector<exp::TrialResult> results =
        exp::ExperimentRunner(options).run(sweepSpecs());
    ASSERT_EQ(results.size(), 8u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].spec_index, i);
        EXPECT_NE(results[i].label.find("/t" + std::to_string(i)),
                  std::string::npos);
        EXPECT_EQ(results[i].seed, sim::substreamSeed(kBaseSeed, i));
        EXPECT_GT(results[i].metrics.total(), 0u);
    }
}

TEST(RunnerDeterminism, MergeFoldsInSubmissionOrder)
{
    exp::RunnerOptions options;
    options.jobs = 4;
    const std::vector<exp::TrialResult> results =
        exp::ExperimentRunner(options).run(sweepSpecs());

    core::RunMetrics manual = results[0].metrics;
    for (std::size_t i = 1; i < results.size(); ++i)
        manual.merge(results[i].metrics);

    std::ostringstream expected;
    core::writeMetricsJson(manual, expected);
    std::ostringstream actual;
    core::writeMetricsJson(exp::mergedMetrics(results), actual);
    EXPECT_EQ(actual.str(), expected.str());

    std::uint64_t total = 0;
    for (const auto &result : results)
        total += result.metrics.total();
    EXPECT_EQ(manual.total(), total);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    for (const unsigned jobs : {1u, 3u, 8u}) {
        std::vector<std::atomic<int>> hits(97);
        exp::parallelFor(jobs, hits.size(), [&](std::size_t i) {
            hits[i].fetch_add(1);
        });
        for (const auto &hit : hits)
            EXPECT_EQ(hit.load(), 1) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, PropagatesSmallestFailingIndex)
{
    for (const unsigned jobs : {1u, 4u}) {
        try {
            exp::parallelFor(jobs, 16, [](std::size_t i) {
                if (i == 5 || i == 11)
                    throw std::runtime_error("boom " + std::to_string(i));
            });
            FAIL() << "expected an exception (jobs=" << jobs << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom 5");
        }
    }
}

// Back-to-back tiny loops on one reusable pool: each parallelFor's
// Loop lives on the caller's stack, so a helper that is slow to wake
// must never touch a loop the caller has already completed and
// destroyed.  Short bodies plus immediate reuse maximize the window;
// under TSan (the CI configuration for this suite) a stale access is
// reported even when it does not crash.
TEST(ParallelFor, BackToBackLoopsDoNotLeakIntoDeadFrames)
{
    sim::ThreadPool pool(4);
    for (int round = 0; round < 2000; ++round) {
        std::atomic<int> hits{0};
        pool.parallelFor(3, [&hits](std::size_t) {
            hits.fetch_add(1, std::memory_order_relaxed);
        });
        ASSERT_EQ(hits.load(), 3) << "round " << round;
    }
}

TEST(RunnerDeterminism, UnboundWorkloadIsReported)
{
    std::vector<exp::TrialSpec> specs(1);
    specs[0].label = "broken";
    specs[0].policy = "cidre";
    EXPECT_THROW(exp::ExperimentRunner().run(specs),
                 std::invalid_argument);
}

} // namespace
} // namespace cidre

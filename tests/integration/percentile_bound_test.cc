/**
 * @file
 * The error bound of the reported overhead and E2E percentiles, checked
 * against the exact per-request log on the golden workload (the
 * 200-function seed trace of golden_headline_test.cc).
 *
 * RunMetrics records both distributions as integer microseconds in a
 * stats::LatencyHistogram, which reports the upper bound of the bucket
 * holding the rank-ceil(qN) sample.  So every reported percentile must
 * lie in [x, x * (1 + 1/128)], where x is that exact order statistic of
 * the outcome log — on one cell, and after the cells of a partitioned
 * run have been merged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sharded_engine.h"
#include "policies/registry.h"
#include "trace/generators.h"

namespace cidre {
namespace {

trace::Trace
goldenTrace()
{
    trace::SyntheticSpec spec = trace::azureLikeSpec();
    spec.functions = 200;
    spec.duration = sim::minutes(8);
    spec.total_rps = 60.0;
    return trace::generate(spec, 42);
}

/** Reported percentiles of @p histogram against the sorted @p exact. */
void
expectWithinBound(const stats::LatencyHistogram &histogram,
                  std::vector<std::uint64_t> exact, const std::string &what)
{
    ASSERT_EQ(histogram.count(), exact.size()) << what;
    std::sort(exact.begin(), exact.end());
    for (const double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
        const auto rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(q * static_cast<double>(exact.size()))));
        const auto x = static_cast<double>(exact[rank - 1]);
        const auto reported = static_cast<double>(histogram.percentile(q));
        EXPECT_GE(reported, x) << what << " q=" << q;
        EXPECT_LE(reported, x * (1.0 + 1.0 / 128.0)) << what << " q=" << q;
    }
}

TEST(PercentileBound, ReportedPercentilesBracketTheExactOrderStatistic)
{
    const trace::Trace workload = goldenTrace();
    for (const std::string policy : {"cidre", "ttl"}) {
        for (const std::uint32_t cells : {1u, 2u}) {
            core::EngineConfig config;
            config.cluster.workers = 3;
            config.cluster.total_memory_mb = 30 * 1024;
            config.shard_cells = cells;
            config.record_per_request = true;
            core::ShardedEngine engine(
                workload, config,
                [&policy](const core::EngineConfig &cell_config) {
                    return policies::makePolicy(policy, cell_config);
                });
            const core::RunMetrics m = engine.run();
            ASSERT_EQ(m.outcomes.size(), workload.requestCount());

            std::vector<std::uint64_t> overhead;
            std::vector<std::uint64_t> e2e;
            for (const core::RequestOutcome &outcome : m.outcomes) {
                overhead.push_back(
                    static_cast<std::uint64_t>(outcome.wait_us));
                e2e.push_back(static_cast<std::uint64_t>(
                    outcome.wait_us + outcome.exec_us));
            }
            const std::string what =
                policy + " on " + std::to_string(cells) + " cell(s)";
            expectWithinBound(m.overheadHistogram(), std::move(overhead),
                              what + ", overhead");
            expectWithinBound(m.e2eHistogram(), std::move(e2e),
                              what + ", e2e");
        }
    }
}

} // namespace
} // namespace cidre

/**
 * @file
 * Golden regression tests for the sharded runtime, in two layers:
 *
 *  1. **Pass-through**: with shard_cells == 1, core::ShardedEngine must
 *     reproduce tests/integration/golden_headline.json — the plain
 *     engine's golden — byte for byte, whether the (single) cell runs
 *     on the calling thread or under a shard pool of 2 or 4 threads.
 *     This pins "sharding changes nothing unless you partition".
 *
 *  2. **Partitioned model**: the 3-cell partition of the same workload
 *     is pinned in golden_headline_sharded.json, and the document must
 *     be bit-identical when executed with 1, 2 and 4 shard threads.
 *     This pins both the partitioned model itself (cells are a semantic
 *     parameter; drift fails loudly) and the determinism contract that
 *     makes `--shards` a pure wall-clock knob.
 *
 * Regenerate layer 2 after an intentional behavior change with:
 *
 *   CIDRE_UPDATE_GOLDEN=1 ./build/tests/test_sharded \
 *       --gtest_filter='GoldenHeadlineSharded.*'
 *
 * Layer 1 has no golden of its own — it must match the plain engine's
 * file, so a divergence there is a pass-through bug by definition.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/sharded_engine.h"
#include "golden_policies.h"
#include "policies/registry.h"
#include "sim/thread_pool.h"
#include "trace/generators.h"

namespace cidre {
namespace {

#ifndef CIDRE_GOLDEN_DIR
#error "CIDRE_GOLDEN_DIR must point at tests/integration"
#endif

const char *const kPlainGoldenPath =
    CIDRE_GOLDEN_DIR "/golden_headline.json";
const char *const kShardedGoldenPath =
    CIDRE_GOLDEN_DIR "/golden_headline_sharded.json";

/** Same fixed workload as the plain golden. */
trace::Trace
goldenTrace()
{
    trace::SyntheticSpec spec = trace::azureLikeSpec();
    spec.functions = 200;
    spec.duration = sim::minutes(8);
    spec.total_rps = 60.0;
    return trace::generate(spec, 42);
}

std::string
exact(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

/**
 * The golden document for @p names on @p cells cells executed on
 * @p shard_threads threads; identical formatting to the plain golden
 * builder so the cells == 1 output is comparable to golden_headline.json
 * byte-wise.
 */
std::string
currentDocument(const std::vector<std::string> &names,
                std::uint32_t cells, unsigned shard_threads)
{
    const trace::Trace workload = goldenTrace();
    core::EngineConfig config;
    config.cluster.workers = 3;
    config.cluster.total_memory_mb = 30 * 1024;
    config.shard_cells = cells;

    sim::ThreadPool pool(shard_threads);
    std::ostringstream doc;
    doc << "{\n";
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string &policy = names[i];
        core::ShardedEngine engine(
            workload, config,
            [&policy](const core::EngineConfig &cell_config) {
                return policies::makePolicy(policy, cell_config);
            });
        const core::RunMetrics m =
            shard_threads > 1 ? engine.run(&pool) : engine.run();
        const double memory_gb_s =
            m.avgMemoryGb() * sim::toSec(m.makespan());
        doc << "  \"" << policy << "\": {"
            << "\"e2e_p50_us\": " << exact(m.e2eHistogram().percentile(0.5))
            << ", \"e2e_p99_us\": "
            << exact(m.e2eHistogram().percentile(0.99))
            << ", \"overhead_p50_us\": "
            << exact(m.overheadHistogram().percentile(0.5))
            << ", \"overhead_p99_us\": "
            << exact(m.overheadHistogram().percentile(0.99))
            << ", \"cold_ratio\": " << exact(m.coldRatio())
            << ", \"avg_memory_gb\": " << exact(m.avgMemoryGb())
            << ", \"memory_gb_s\": " << exact(memory_gb_s) << "}"
            << (i + 1 < names.size() ? "," : "") << "\n";
    }
    doc << "}\n";
    return doc.str();
}

std::string
readFileOrFail(const char *path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "missing golden file " << path;
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

TEST(GoldenHeadlineSharded, PassThroughMatchesPlainGoldenForAnyShards)
{
    const std::string golden = readFileOrFail(kPlainGoldenPath);
    ASSERT_FALSE(golden.empty());
    const std::vector<std::string> names = goldenPolicyNames();
    EXPECT_EQ(currentDocument(names, 1, 1), golden)
        << "ShardedEngine with one cell diverged from the plain engine";
    EXPECT_EQ(currentDocument(names, 1, 2), golden);
    EXPECT_EQ(currentDocument(names, 1, 4), golden);
}

TEST(GoldenHeadlineSharded, PartitionedModelBitIdenticalAcrossShards)
{
    // 3 workers -> at most 3 cells; pin the maximal partition.
    const std::string current = currentDocument(kCorePolicyPairs, 3, 1);
    EXPECT_EQ(current, currentDocument(kCorePolicyPairs, 3, 2))
        << "shard thread count leaked into partitioned results";
    EXPECT_EQ(current, currentDocument(kCorePolicyPairs, 3, 4));

    if (std::getenv("CIDRE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(kShardedGoldenPath);
        ASSERT_TRUE(out) << "cannot write " << kShardedGoldenPath;
        out << current;
        ASSERT_TRUE(out.good());
        GTEST_SKIP() << "golden rewritten at " << kShardedGoldenPath
                     << "; review and commit it";
    }

    EXPECT_EQ(current, readFileOrFail(kShardedGoldenPath))
        << "partitioned-model metrics drifted from the checked-in"
           " golden; if intentional, regenerate with"
           " CIDRE_UPDATE_GOLDEN=1 and commit the new"
           " golden_headline_sharded.json";
}

} // namespace
} // namespace cidre

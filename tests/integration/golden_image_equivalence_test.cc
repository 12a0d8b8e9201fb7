/**
 * @file
 * Zero-copy substrate equivalence: simulating from a mmapped `.ctrb`
 * trace image must be BIT-IDENTICAL to simulating from the in-memory
 * Trace it was serialized from — same RunMetrics, down to %.17g
 * formatting of every headline value, for both the single engine and
 * the sharded engine.
 *
 * This is the contract that makes pre-converting traces a pure
 * load-time optimization: the engine cannot tell which substrate a
 * TraceView is bound to.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "core/engine.h"
#include "core/metrics_io.h"
#include "core/sharded_engine.h"
#include "policies/registry.h"
#include "sim/thread_pool.h"
#include "tests/temp_file.h"
#include "trace/generators.h"
#include "trace/trace_image.h"
#include "trace/trace_view.h"

namespace cidre {
namespace {

/** The golden headline workload (matches golden_headline_test.cc). */
trace::Trace
goldenTrace()
{
    trace::SyntheticSpec spec = trace::azureLikeSpec();
    spec.functions = 200;
    spec.duration = sim::minutes(8);
    spec.total_rps = 60.0;
    return trace::generate(spec, 42);
}

core::EngineConfig
goldenConfig()
{
    core::EngineConfig config;
    config.cluster.workers = 3;
    config.cluster.total_memory_mb = 30 * 1024;
    return config;
}

std::string
exact(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

/** Full-precision fingerprint of a run's headline metrics. */
std::string
fingerprint(const core::RunMetrics &m)
{
    std::ostringstream out;
    out << m.total() << " " << m.count(core::StartType::Warm) << " "
        << m.count(core::StartType::DelayedWarm) << " "
        << m.count(core::StartType::Cold) << " "
        << m.count(core::StartType::Restored) << " "
        << exact(m.e2eHistogram().percentile(0.5)) << " "
        << exact(m.e2eHistogram().percentile(0.99)) << " "
        << exact(m.overheadHistogram().percentile(0.5)) << " "
        << exact(m.overheadHistogram().percentile(0.99)) << " "
        << exact(m.coldRatio()) << " " << exact(m.avgMemoryGb()) << " "
        << m.containers_created << " " << m.evictions << " "
        << m.makespan() << " ";
    core::writeMetricsJson(m, out);
    return out.str();
}

core::RunMetrics
runSingle(trace::TraceView workload, const std::string &policy)
{
    const core::EngineConfig config = goldenConfig();
    core::Engine engine(workload, config,
                        policies::makePolicy(policy, config));
    return engine.run();
}

core::RunMetrics
runSharded(trace::TraceView workload, const std::string &policy,
           std::uint32_t cells, unsigned threads)
{
    core::EngineConfig config = goldenConfig();
    config.shard_cells = cells;
    core::ShardedEngine engine(
        workload, config,
        [&policy](const core::EngineConfig &cell_config) {
            return policies::makePolicy(policy, cell_config);
        });
    if (threads > 1) {
        sim::ThreadPool pool(threads);
        return engine.run(&pool);
    }
    return engine.run();
}

class GoldenImageEquivalence : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        trace_ = goldenTrace();
        trace::writeTraceImageFile(trace_, file_.path());
        image_ = std::make_unique<trace::TraceImage>(
            trace::TraceImage::open(file_.path()));
        ASSERT_EQ(image_->requestCount(), trace_.requestCount());
    }

    trace::Trace trace_;
    test::TempFile file_{"golden_equivalence.ctrb"};
    std::unique_ptr<trace::TraceImage> image_;
};

TEST_F(GoldenImageEquivalence, SingleEngineBitIdentical)
{
    for (const char *policy : {"cidre", "faascache", "ttl"}) {
        const std::string from_memory =
            fingerprint(runSingle(trace_, policy));
        const std::string from_image =
            fingerprint(runSingle(image_->view(), policy));
        EXPECT_EQ(from_image, from_memory) << "policy " << policy;
    }
}

TEST_F(GoldenImageEquivalence, ShardedEngineBitIdentical)
{
    // Sharded, multi-threaded replay from the image: the one mapping is
    // shared read-only by every shard thread, and the result must still
    // match the in-memory serial run bit for bit.
    const std::string from_memory =
        fingerprint(runSharded(trace_, "cidre", 3, 1));
    EXPECT_EQ(fingerprint(runSharded(image_->view(), "cidre", 3, 1)),
              from_memory);
    EXPECT_EQ(fingerprint(runSharded(image_->view(), "cidre", 3, 4)),
              from_memory);
}

TEST_F(GoldenImageEquivalence, SingleMatchesInMemorySharded)
{
    // Cross-check: image-backed sharded == memory-backed sharded with
    // different thread counts (pass-through cells=1 included).
    EXPECT_EQ(fingerprint(runSharded(image_->view(), "cidre", 1, 1)),
              fingerprint(runSharded(trace_, "cidre", 1, 1)));
    EXPECT_EQ(fingerprint(runSharded(image_->view(), "faascache", 3, 4)),
              fingerprint(runSharded(trace_, "faascache", 3, 4)));
}

} // namespace
} // namespace cidre

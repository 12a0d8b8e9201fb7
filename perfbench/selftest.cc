/**
 * @file
 * Tests of the benchmark's own instrumentation: a decorated bundle must
 * be indistinguishable from the bundle it wraps, and attaching the
 * ArrivalClock agent must not change a result.  Run through
 * `python3 perfbench/run.py --self-test`, which also checks every
 * metric name the driver emits against BENCHMARK.json.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/metrics_io.h"
#include "core/sharded_engine.h"
#include "instrument.h"
#include "policies/registry.h"
#include "trace/generators.h"

namespace {

using cidre::core::EngineConfig;
using cidre::core::OrchestrationPolicy;
using cidre::core::ShardedEngine;

const cidre::trace::Trace &
smallTrace()
{
    static const cidre::trace::Trace trace =
        cidre::trace::makeAzureLikeTrace(7, 0.02);
    return trace;
}

EngineConfig
smallConfig(std::uint32_t cells)
{
    EngineConfig config;
    config.cluster.workers = 4;
    config.cluster.total_memory_mb = 24 * 1024; // saturated: reclaims run
    config.shard_cells = cells;
    config.validate();
    return config;
}

std::string
runJson(const EngineConfig &config, const ShardedEngine::PolicyFactory &make)
{
    ShardedEngine engine(smallTrace(), config, make);
    engine.begin();
    std::ostringstream out;
    cidre::core::writeMetricsJson(engine.finish(nullptr), out);
    return out.str();
}

class DecoratedBundle : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DecoratedBundle, MetricsAreByteIdentical)
{
    const std::string policy = GetParam();
    for (const std::uint32_t cells : {1u, 2u}) {
        const EngineConfig config = smallConfig(cells);
        const std::string plain =
            runJson(config, [&policy](const EngineConfig &cell) {
                return cidre::policies::makePolicy(policy, cell);
            });
        std::vector<perfbench::LayerLedger> ledgers(cells);
        std::uint32_t built = 0;
        const std::string decorated =
            runJson(config, [&](const EngineConfig &cell) {
                return perfbench::decorate(
                    cidre::policies::makePolicy(policy, cell),
                    ledgers.at(built++));
            });
        EXPECT_EQ(plain, decorated) << policy << " with " << cells
                                    << " cell(s)";
        perfbench::LayerLedger total;
        for (const perfbench::LayerLedger &l : ledgers)
            total.add(l);
        EXPECT_GT(total.keepalive_hooks.calls + total.scaling.calls, 0u)
            << policy << ": the decorators saw no calls";
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryPolicy, DecoratedBundle,
    ::testing::ValuesIn(cidre::policies::allPolicyNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(ArrivalClock, ObservesWithoutChangingResults)
{
    const EngineConfig config = smallConfig(1);
    const std::string plain = runJson(config, [](const EngineConfig &cell) {
        return cidre::policies::makePolicy("cidre", cell);
    });
    std::vector<std::int64_t> stamps;
    const std::string clocked =
        runJson(config, [&stamps](const EngineConfig &cell) {
            OrchestrationPolicy bundle =
                cidre::policies::makePolicy("cidre", cell);
            bundle.agent = std::make_unique<perfbench::ArrivalClock>(stamps);
            return bundle;
        });
    EXPECT_EQ(plain, clocked);
    ASSERT_EQ(stamps.size(), smallTrace().requestCount());
    for (std::size_t i = 1; i < stamps.size(); ++i)
        ASSERT_LE(stamps[i - 1], stamps[i]);
}

TEST(LayerLedger, ReclaimSufficiencyIsCountedPerPlan)
{
    perfbench::LayerLedger ledger;
    runJson(smallConfig(1), [&ledger](const EngineConfig &cell) {
        return perfbench::decorate(
            cidre::policies::makePolicy("cidre", cell), ledger);
    });
    EXPECT_GT(ledger.reclaim.calls, 0u);
    EXPECT_LE(ledger.reclaim_sufficient, ledger.reclaim.calls);
    EXPECT_LE(ledger.spec_reused, ledger.spec_outcomes);
    EXPECT_LE(ledger.speculative, ledger.scaling.calls);
    EXPECT_GT(ledger.expire.calls, 0u);
}

} // namespace

/**
 * @file
 * Golden regression test: headline metrics of every registered policy
 * (golden_policies.h) on one fixed 200-function seed trace, compared
 * EXACTLY (string-identical formatted values) against checked-in golden
 * JSON.
 *
 * The engine is a deterministic discrete-event simulator, so any
 * difference — one request classified differently, one eviction in
 * another order — is engine/policy behavior drift and must fail CI
 * loudly, unlike the tolerance-based headline tests next door.
 *
 * To regenerate after an *intentional* behavior change:
 *
 *   CIDRE_UPDATE_GOLDEN=1 ./build/tests/test_integration \
 *       --gtest_filter='GoldenHeadline.*'
 *
 * then commit the rewritten tests/integration/golden_headline.json with
 * a justification of the drift.  Values are formatted with %.17g, which
 * round-trips IEEE-754 doubles exactly; the file is tied to this
 * platform/toolchain family, so regenerate rather than hand-edit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "golden_policies.h"
#include "policies/registry.h"
#include "trace/generators.h"

namespace cidre {
namespace {

#ifndef CIDRE_GOLDEN_DIR
#error "CIDRE_GOLDEN_DIR must point at tests/integration"
#endif

const char *const kGoldenPath =
    CIDRE_GOLDEN_DIR "/golden_headline.json";

/** Fixed workload: 200 functions, 8 minutes, seed 42, Azure-like. */
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

/** Build the whole golden document for the current engine behavior. */
std::string
currentDocument()
{
    const trace::Trace workload = goldenTrace();
    core::EngineConfig config;
    config.cluster.workers = 3;
    config.cluster.total_memory_mb = 30 * 1024;

    const std::vector<std::string> names = goldenPolicyNames();
    std::ostringstream doc;
    doc << "{\n";
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string &policy = names[i];
        core::Engine engine(workload, config,
                            policies::makePolicy(policy, config));
        const core::RunMetrics m = engine.run();
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

TEST(GoldenHeadline, ExactMatchAgainstCheckedInGolden)
{
    const std::string current = currentDocument();

    if (std::getenv("CIDRE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(kGoldenPath);
        ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
        out << current;
        ASSERT_TRUE(out.good());
        GTEST_SKIP() << "golden rewritten at " << kGoldenPath
                     << "; review and commit it";
    }

    std::ifstream in(kGoldenPath);
    ASSERT_TRUE(in) << "missing golden file " << kGoldenPath
                    << " — run with CIDRE_UPDATE_GOLDEN=1 to create it";
    std::ostringstream golden;
    golden << in.rdbuf();

    EXPECT_EQ(current, golden.str())
        << "headline metrics drifted from the checked-in golden; if the"
           " change is intentional, regenerate with CIDRE_UPDATE_GOLDEN=1"
           " and commit the new golden_headline.json";
}

TEST(GoldenHeadline, TraceItselfIsStable)
{
    // The golden pins engine behavior *given* the trace; pin the trace
    // too so generator drift is reported as its own failure.
    const trace::Trace workload = goldenTrace();
    EXPECT_EQ(workload.functionCount(), 200u);
    const trace::Trace again = goldenTrace();
    ASSERT_EQ(workload.requestCount(), again.requestCount());
    for (std::size_t i = 0; i < workload.requestCount(); ++i) {
        ASSERT_EQ(workload.requests()[i].function,
                  again.requests()[i].function);
        ASSERT_EQ(workload.requests()[i].arrival_us,
                  again.requests()[i].arrival_us);
        ASSERT_EQ(workload.requests()[i].exec_us,
                  again.requests()[i].exec_us);
    }
}

} // namespace
} // namespace cidre

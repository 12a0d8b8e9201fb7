/**
 * @file
 * Unit and property tests for intra-trial sharding: the partition plan,
 * the cells == 1 pass-through, thread-count neutrality, outcome
 * scattering, the lockstep stepping API, and the concurrent metrics
 * merge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "core/metrics_io.h"
#include "core/sharded_engine.h"
#include "policies/registry.h"
#include "sim/thread_pool.h"
#include "sim/topology.h"
#include "trace/generators.h"

namespace cidre {
namespace {

trace::Trace
testTrace(double scale = 0.05)
{
    return trace::makeAzureLikeTrace(42, scale);
}

core::EngineConfig
testConfig(std::uint32_t cells = 1, std::uint32_t workers = 4)
{
    core::EngineConfig config;
    config.cluster.workers = workers;
    config.cluster.total_memory_mb = workers * 12 * 1024;
    config.shard_cells = cells;
    return config;
}

core::ShardedEngine::PolicyFactory
factoryFor(const std::string &policy)
{
    return [policy](const core::EngineConfig &config) {
        return policies::makePolicy(policy, config);
    };
}

std::string
metricsFingerprint(const core::RunMetrics &metrics)
{
    std::ostringstream out;
    core::writeMetricsJson(metrics, out);
    return out.str();
}

// ---- partition plan ---------------------------------------------------

TEST(ShardPlan, PartitionsWorkersContiguouslyAndCompletely)
{
    const trace::Trace workload = testTrace();
    for (const std::uint32_t cells : {1u, 2u, 3u, 4u}) {
        const auto plan =
            core::buildShardPlan(workload, testConfig(cells));
        ASSERT_EQ(plan.cells.size(), cells);
        std::uint32_t next = 0;
        std::int64_t memory = 0;
        for (const auto &cell : plan.cells) {
            EXPECT_EQ(cell.first_worker, next);
            EXPECT_GE(cell.worker_count, 1u);
            EXPECT_EQ(cell.cluster.workers, cell.worker_count);
            next += cell.worker_count;
            memory += cell.cluster.total_memory_mb;
        }
        EXPECT_EQ(next, testConfig(cells).cluster.workers);
        EXPECT_EQ(memory, testConfig(cells).cluster.total_memory_mb);
    }
}

TEST(ShardPlan, AssignsEveryFunctionToExactlyOneCell)
{
    const trace::Trace workload = testTrace();
    const auto plan = core::buildShardPlan(workload, testConfig(3));
    ASSERT_EQ(plan.cell_of_function.size(), workload.functionCount());

    std::vector<int> seen(workload.functionCount(), 0);
    for (std::size_t k = 0; k < plan.cells.size(); ++k) {
        const auto &fns = plan.cells[k].functions;
        EXPECT_TRUE(std::is_sorted(fns.begin(), fns.end()));
        for (const auto fn : fns) {
            EXPECT_EQ(plan.cell_of_function[fn], k);
            ++seen[fn];
        }
    }
    for (std::size_t fn = 0; fn < seen.size(); ++fn)
        EXPECT_EQ(seen[fn], 1) << "function " << fn;
}

TEST(ShardPlan, WeightsMatchRequestCountsAndBalance)
{
    const trace::Trace workload = testTrace();
    const auto counts = workload.requestCountByFunction();
    const auto plan = core::buildShardPlan(workload, testConfig(4));

    std::uint64_t total = 0;
    std::uint64_t heaviest_fn = 0;
    for (const auto c : counts) {
        total += c;
        heaviest_fn = std::max(heaviest_fn, c);
    }
    std::uint64_t max_weight = 0;
    std::uint64_t min_weight = UINT64_MAX;
    std::uint64_t sum = 0;
    for (const auto &cell : plan.cells) {
        std::uint64_t weight = 0;
        for (const auto fn : cell.functions)
            weight += counts[fn];
        EXPECT_EQ(weight, cell.request_weight);
        sum += weight;
        max_weight = std::max(max_weight, weight);
        min_weight = std::min(min_weight, weight);
    }
    EXPECT_EQ(sum, total);
    // LPT guarantee: no cell exceeds the ideal share by more than the
    // single heaviest function.
    EXPECT_LE(max_weight, total / plan.cells.size() + heaviest_fn);
    EXPECT_GT(min_weight, 0u);
}

TEST(ShardPlan, PreservesPerWorkerCapacitiesOfTheMonolithicSplit)
{
    // 109 MB over 10 workers: the monolithic split gives worker 0 the
    // 9 MB remainder ([19, 10 x 9]).  A cell handed only a memory
    // total would re-split it internally (cell 0: 59 MB / 5 workers ->
    // [15, 11, 11, 11, 11]), so the plan must carry the capacities
    // explicitly for per-worker headroom to survive partitioning.
    const trace::Trace workload = testTrace();
    auto config = testConfig(2, 10);
    config.cluster.total_memory_mb = 109;
    const auto plan = core::buildShardPlan(workload, config);

    std::vector<std::int64_t> expected(10, 10);
    expected[0] = 19;
    std::size_t next = 0;
    for (const auto &cell : plan.cells) {
        const cluster::Cluster cl(cell.cluster);
        for (std::size_t w = 0; w < cl.workerCount(); ++w) {
            EXPECT_EQ(cl.worker(static_cast<cluster::WorkerId>(w))
                          .capacityMb(),
                      expected[next])
                << "worker " << next;
            ++next;
        }
    }
    EXPECT_EQ(next, expected.size());
}

TEST(ShardPlan, IsAPureFunctionOfTraceAndConfig)
{
    const trace::Trace workload = testTrace();
    const auto a = core::buildShardPlan(workload, testConfig(3));
    const auto b = core::buildShardPlan(workload, testConfig(3));
    ASSERT_EQ(a.cells.size(), b.cells.size());
    EXPECT_EQ(a.cell_of_function, b.cell_of_function);
    for (std::size_t k = 0; k < a.cells.size(); ++k) {
        EXPECT_EQ(a.cells[k].functions, b.cells[k].functions);
        EXPECT_EQ(a.cells[k].first_worker, b.cells[k].first_worker);
        EXPECT_EQ(a.cells[k].cluster.total_memory_mb,
                  b.cells[k].cluster.total_memory_mb);
    }
}

// ---- validation -------------------------------------------------------

TEST(ShardedEngine, PlainEngineRejectsPartitionedConfig)
{
    const trace::Trace workload = testTrace();
    const auto config = testConfig(2);
    EXPECT_THROW(
        core::Engine(workload, config,
                     policies::makePolicy("cidre", config)),
        std::invalid_argument);
}

TEST(ShardedEngine, ConfigValidatesCellCount)
{
    auto config = testConfig();
    config.shard_cells = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.shard_cells = config.cluster.workers + 1;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.shard_cells = config.cluster.workers;
    EXPECT_NO_THROW(config.validate());
}

// ---- cells == 1 pass-through ------------------------------------------

TEST(ShardedEngine, SingleCellIsBitIdenticalToPlainEngine)
{
    const trace::Trace workload = testTrace();
    auto config = testConfig(1);
    config.record_per_request = true;

    core::Engine plain(workload, config,
                       policies::makePolicy("cidre", config));
    const core::RunMetrics expected = plain.run();

    core::ShardedEngine sharded(workload, config, factoryFor("cidre"));
    ASSERT_EQ(sharded.cellCount(), 1u);
    const core::RunMetrics actual = sharded.run();

    EXPECT_EQ(metricsFingerprint(actual), metricsFingerprint(expected));
    ASSERT_EQ(actual.outcomes.size(), expected.outcomes.size());
    for (std::size_t i = 0; i < expected.outcomes.size(); ++i) {
        EXPECT_EQ(actual.outcomes[i].type, expected.outcomes[i].type);
        EXPECT_EQ(actual.outcomes[i].wait_us,
                  expected.outcomes[i].wait_us);
    }
}

// ---- thread-count neutrality ------------------------------------------

TEST(ShardedEngine, ShardThreadsAreResultsNeutral)
{
    const trace::Trace workload = testTrace();
    const auto config = testConfig(4);

    const auto runWith = [&](unsigned threads) {
        core::ShardedEngine engine(workload, config, factoryFor("cidre"));
        if (threads <= 1)
            return metricsFingerprint(engine.run());
        sim::ThreadPool pool(threads);
        return metricsFingerprint(engine.run(&pool));
    };

    const std::string serial = runWith(1);
    EXPECT_EQ(serial, runWith(2));
    EXPECT_EQ(serial, runWith(4));
    EXPECT_EQ(serial, runWith(8));
}

TEST(ShardedEngine, PolicyBundlesAreCellLocalAcrossRegistry)
{
    // Every registry policy must produce thread-independent results;
    // a policy sharing hidden state across bundles would diverge.
    const trace::Trace workload = testTrace(0.02);
    const auto config = testConfig(3);
    for (const char *policy :
         {"cidre", "cidre-bss", "faascache", "ttl"}) {
        core::ShardedEngine serial_engine(workload, config,
                                          factoryFor(policy));
        const std::string serial =
            metricsFingerprint(serial_engine.run());
        sim::ThreadPool pool(3);
        core::ShardedEngine pooled_engine(workload, config,
                                          factoryFor(policy));
        EXPECT_EQ(serial, metricsFingerprint(pooled_engine.run(&pool)))
            << "policy " << policy;
    }
}

// ---- outcome scattering -----------------------------------------------

TEST(ShardedEngine, ScattersOutcomesToOriginalRequestIndices)
{
    const trace::Trace workload = testTrace();
    auto config = testConfig(3);
    config.record_per_request = true;

    core::ShardedEngine engine(workload, config, factoryFor("cidre"));
    const core::RunMetrics merged = engine.run();

    ASSERT_EQ(merged.outcomes.size(), workload.requestCount());
    // Every request executed: the per-type outcome counts must sum to
    // the merged counters exactly.
    std::array<std::uint64_t, 4> by_type{};
    std::uint64_t with_exec = 0;
    for (const auto &outcome : merged.outcomes) {
        ++by_type[static_cast<std::size_t>(outcome.type)];
        if (outcome.exec_us > 0)
            ++with_exec;
    }
    EXPECT_EQ(by_type[0], merged.count(core::StartType::Warm));
    EXPECT_EQ(by_type[1], merged.count(core::StartType::DelayedWarm));
    EXPECT_EQ(by_type[2], merged.count(core::StartType::Cold));
    EXPECT_EQ(by_type[3], merged.count(core::StartType::Restored));
    EXPECT_EQ(merged.total(), workload.requestCount());
    EXPECT_GT(with_exec, 0u);

    // Scattering is positional: request i's outcome matches the
    // exec time the trace prescribed for request i.
    for (std::size_t i = 0; i < workload.requestCount(); ++i) {
        ASSERT_EQ(merged.outcomes[i].exec_us,
                  workload.requests()[i].exec_us)
            << "request " << i;
    }
}

// ---- stepped API ------------------------------------------------------

TEST(ShardedEngine, BeginFinishMatchesRun)
{
    const trace::Trace workload = testTrace();
    const auto config = testConfig(4);

    core::ShardedEngine oneshot(workload, config, factoryFor("cidre"));
    const std::string expected = metricsFingerprint(oneshot.run());

    sim::ThreadPool pool(4);
    core::ShardedEngine split(workload, config, factoryFor("cidre"));
    split.begin();
    EXPECT_FALSE(split.drained());
    const std::string actual = metricsFingerprint(split.finish(&pool));
    EXPECT_EQ(actual, expected);
    EXPECT_TRUE(split.drained());
    EXPECT_EQ(split.eventsExecuted(), oneshot.eventsExecuted());
}

TEST(ShardedEngine, SteppedExecutionIsDeterministicAcrossPools)
{
    // Stepping advances each cell's clock to the step boundary
    // (Engine::stepUntil semantics), so the makespan may be
    // step-granular; everything
    // else — every counter, every event — must match the one-shot run,
    // and the whole stepped result must be bit-identical regardless of
    // how many threads drive the steps.
    const trace::Trace workload = testTrace();
    const auto config = testConfig(4);

    const auto steppedRun = [&](unsigned threads) {
        sim::ThreadPool pool(threads);
        core::ShardedEngine engine(workload, config, factoryFor("cidre"));
        engine.begin();
        sim::SimTime until = sim::sec(30);
        std::size_t events = 0;
        while (!engine.drained()) {
            events += engine.stepUntil(until, &pool);
            until += sim::sec(30);
        }
        auto metrics = engine.finish(&pool);
        return std::make_pair(metricsFingerprint(metrics), events);
    };

    const auto [serial_doc, serial_events] = steppedRun(1);
    EXPECT_EQ(steppedRun(2), std::make_pair(serial_doc, serial_events));
    EXPECT_EQ(steppedRun(4), std::make_pair(serial_doc, serial_events));

    core::ShardedEngine oneshot(workload, config, factoryFor("cidre"));
    const core::RunMetrics reference = oneshot.run();
    EXPECT_EQ(serial_events, oneshot.eventsExecuted());

    core::ShardedEngine stepped(workload, config, factoryFor("cidre"));
    stepped.begin();
    sim::SimTime until = sim::sec(30);
    while (!stepped.drained()) {
        stepped.stepUntil(until);
        until += sim::sec(30);
    }
    const core::RunMetrics actual = stepped.finish();
    EXPECT_EQ(actual.total(), reference.total());
    EXPECT_EQ(actual.count(core::StartType::Cold),
              reference.count(core::StartType::Cold));
    EXPECT_EQ(actual.count(core::StartType::DelayedWarm),
              reference.count(core::StartType::DelayedWarm));
    EXPECT_EQ(actual.containers_created, reference.containers_created);
    EXPECT_EQ(actual.evictions, reference.evictions);
    EXPECT_EQ(actual.deferred_provisions, reference.deferred_provisions);
    // Step-granular clock: never earlier than the event-granular one,
    // never past the boundary following it.
    EXPECT_GE(actual.makespan(), reference.makespan());
    EXPECT_LT(actual.makespan(), reference.makespan() + sim::sec(30));
}

// ---- execution options are wall-clock only ----------------------------

TEST(ShardedEngine, PinningIsResultsNeutral)
{
    // Pinned and unpinned executions must be bit-identical: placement
    // is a pure wall-clock knob.  Physical mode always resolves a pin
    // list (wrapping over the machine), so this exercises the pinned
    // code path even on a single-core builder, where the pins may be
    // refused — also covered by the contract.
    const trace::Trace workload = testTrace();
    const auto config = testConfig(4);
    const auto topology = sim::CpuTopology::detect();

    const auto runWith = [&](const std::vector<int> &pin_cpus,
                             unsigned threads) {
        sim::ThreadPool pool(threads, pin_cpus);
        core::ShardedEngine engine(workload, config, factoryFor("cidre"));
        return metricsFingerprint(engine.run(&pool));
    };

    const std::string unpinned = runWith({}, 2);
    const auto pins =
        sim::resolvePinCpus(sim::PinMode::Physical, topology, 2);
    ASSERT_FALSE(pins.empty());
    EXPECT_EQ(unpinned, runWith(pins, 2));
    EXPECT_EQ(unpinned, runWith(pins, 4));
}

// ---- auto cell planning -----------------------------------------------

TEST(AutoCellCount, ClampsToWorkersFunctionsAndRequestFloor)
{
    // Big enough that the request floor (kMinRequestsPerCell per cell)
    // allows at least 8 cells, so the machine/thread clamps are what
    // bites in each case below.
    const trace::Trace workload = testTrace(2.0);
    ASSERT_GE(workload.requestCount(), 8 * core::kMinRequestsPerCell);
    ASSERT_GE(workload.functionCount(), 8u);

    sim::CpuTopology one_core;
    one_core.cpus.push_back({});
    sim::CpuTopology eight_core;
    for (int id = 0; id < 8; ++id)
        eight_core.cpus.push_back({id, id, 0, 0, false});

    // Shard threads set the floor of the target...
    EXPECT_EQ(core::autoCellCount(workload, testConfig(1, 8), 4,
                                  one_core),
              4u);
    // ...physical cores raise it past the thread count...
    EXPECT_EQ(core::autoCellCount(workload, testConfig(1, 8), 2,
                                  eight_core),
              8u);
    // ...and the worker count caps it.
    EXPECT_EQ(core::autoCellCount(workload, testConfig(1, 3), 8,
                                  eight_core),
              3u);

    // The request floor bites on tiny traces: never fewer than
    // kMinRequestsPerCell requests per cell, never less than one cell.
    const trace::Trace tiny = testTrace(0.001);
    const auto cells = core::autoCellCount(tiny, testConfig(1, 8), 8,
                                           eight_core);
    EXPECT_GE(cells, 1u);
    EXPECT_LE(static_cast<std::uint64_t>(cells) *
                  core::kMinRequestsPerCell,
              std::max<std::uint64_t>(tiny.requestCount(),
                                      core::kMinRequestsPerCell));
}

TEST(AutoCellCount, IsDeterministicForFixedInputs)
{
    const trace::Trace workload = testTrace();
    sim::CpuTopology topology;
    for (int id = 0; id < 4; ++id)
        topology.cpus.push_back({id, id, 0, 0, false});
    const auto first =
        core::autoCellCount(workload, testConfig(1, 8), 4, topology);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(core::autoCellCount(workload, testConfig(1, 8), 4,
                                      topology),
                  first);
    // And the resolved count yields a valid, reproducible partition.
    auto config = testConfig(first, 8);
    EXPECT_NO_THROW(config.validate());
    const auto plan_a = core::buildShardPlan(workload, config);
    const auto plan_b = core::buildShardPlan(workload, config);
    EXPECT_EQ(plan_a.cell_of_function, plan_b.cell_of_function);
}

TEST(ShardedEngine, BeginIsSingleShot)
{
    const trace::Trace workload = testTrace(0.02);
    core::ShardedEngine engine(workload, testConfig(2),
                               factoryFor("ttl"));
    engine.begin();
    EXPECT_THROW(engine.begin(), std::logic_error);
}

// ---- concurrent metrics merge -----------------------------------------

TEST(MergeConcurrent, MakespanIsMaxAndIntegralsSum)
{
    core::RunMetrics a;
    a.recordStart(core::StartType::Cold, 100, 900);
    a.noteMemoryUsage(0, 1024);
    a.finalize(sim::sec(10));

    core::RunMetrics b;
    b.recordStart(core::StartType::Warm, 0, 500);
    b.recordStart(core::StartType::Warm, 0, 700);
    b.noteMemoryUsage(0, 2048);
    b.finalize(sim::sec(40));

    core::RunMetrics concurrent = a;
    concurrent.mergeConcurrent(b);
    EXPECT_EQ(concurrent.makespan(), sim::sec(40));
    EXPECT_EQ(concurrent.total(), 3u);
    // Peak is the sum of cell peaks (upper bound): 1 GB + 2 GB.
    EXPECT_DOUBLE_EQ(concurrent.peakMemoryGb(), 3.0);
    // Integrals sum: (1024 * 10 s + 2048 * 40 s) over the 40 s span.
    const double expected_avg =
        (1024.0 * 10.0 + 2048.0 * 40.0) / 40.0 / 1024.0;
    EXPECT_DOUBLE_EQ(concurrent.avgMemoryGb(), expected_avg);

    // Contrast with sequential merge: makespans add, peaks max.
    core::RunMetrics sequential = a;
    sequential.merge(b);
    EXPECT_EQ(sequential.makespan(), sim::sec(50));
    EXPECT_DOUBLE_EQ(sequential.peakMemoryGb(), 2.0);
}

TEST(MergeConcurrent, RequiresFinalizedAndRejectsSelfMerge)
{
    core::RunMetrics a;
    core::RunMetrics b;
    EXPECT_THROW(a.mergeConcurrent(b), std::logic_error);
    a.finalize(0);
    EXPECT_THROW(a.mergeConcurrent(b), std::logic_error);
    b.finalize(0);
    EXPECT_THROW(a.mergeConcurrent(a), std::logic_error);
    EXPECT_NO_THROW(a.mergeConcurrent(b));
}

} // namespace
} // namespace cidre

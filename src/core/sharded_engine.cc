#include "core/sharded_engine.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "sim/rng.h"
#include "sim/serialize.h"
#include "sim/time.h"

namespace cidre::core {

namespace {

/** Per-worker capacities of the full cluster (worker 0 absorbs the
 *  division remainder, mirroring cluster::Cluster's own split). */
std::vector<std::int64_t>
fullClusterCapacities(const cluster::ClusterConfig &cfg)
{
    const auto per_worker =
        cfg.total_memory_mb / static_cast<std::int64_t>(cfg.workers);
    std::vector<std::int64_t> caps(cfg.workers, per_worker);
    caps[0] += cfg.total_memory_mb % static_cast<std::int64_t>(cfg.workers);
    return caps;
}

} // namespace

std::uint32_t
autoCellCount(trace::TraceView workload, const EngineConfig &config,
              unsigned shard_threads, const sim::CpuTopology &topology)
{
    if (!workload.valid())
        throw std::invalid_argument("autoCellCount: unbound workload view");

    // One cell per unit of real parallelism the run can apply: the
    // machine's physical cores when wider than the requested team.
    std::uint64_t want = std::max<std::uint64_t>(
        shard_threads, topology.physicalCores());

    // Clamps, in decreasing order of authority: the partition cannot
    // exceed the cluster's workers (each cell needs a worker slice) or
    // the trace's functions (a functionless cell simulates nothing),
    // and tiny traces do not amortize partition overhead.
    want = std::min<std::uint64_t>(want, config.cluster.workers);
    want = std::min<std::uint64_t>(want, workload.functionCount());
    want = std::min<std::uint64_t>(
        want, workload.requestCount() / kMinRequestsPerCell);
    return static_cast<std::uint32_t>(std::max<std::uint64_t>(want, 1));
}

ShardPlan
buildShardPlan(trace::TraceView workload, const EngineConfig &config)
{
    if (!workload.valid())
        throw std::invalid_argument("buildShardPlan: unbound workload view");
    config.validate();

    const auto cells = config.shard_cells;
    ShardPlan plan;
    plan.cells.resize(cells);
    plan.cell_of_function.assign(workload.functionCount(), 0);

    // Contiguous worker slices; the first (workers % cells) cells take
    // one extra worker.  Cell memory mirrors the monolithic split: the
    // per-worker capacities are passed to the cell *explicitly* (via
    // ClusterConfig::worker_memory_mb), so each worker keeps exactly
    // the capacity it would have in the full cluster — handing the cell
    // only a total would let cluster::Cluster re-split it and shift the
    // division remainder onto the cell's first worker.
    const auto caps = config.cluster.worker_memory_mb.empty()
        ? fullClusterCapacities(config.cluster)
        : config.cluster.worker_memory_mb;
    std::uint32_t next_worker = 0;
    for (std::uint32_t k = 0; k < cells; ++k) {
        auto &cell = plan.cells[k];
        cell.first_worker = next_worker;
        cell.worker_count = config.cluster.workers / cells +
            (k < config.cluster.workers % cells ? 1U : 0U);
        next_worker += cell.worker_count;

        cell.cluster.workers = cell.worker_count;
        const auto first_cap = caps.begin() + cell.first_worker;
        cell.cluster.worker_memory_mb.assign(
            first_cap, first_cap + cell.worker_count);
        cell.cluster.total_memory_mb = 0;
        for (std::uint32_t w = 0; w < cell.worker_count; ++w)
            cell.cluster.total_memory_mb += caps[cell.first_worker + w];
        if (!config.cluster.speed_factors.empty()) {
            const auto first = config.cluster.speed_factors.begin() +
                cell.first_worker;
            cell.cluster.speed_factors.assign(first,
                                              first + cell.worker_count);
        }
    }

    // Longest-processing-time assignment of functions to cells, keyed
    // by request count: heaviest function first into the least-loaded
    // cell.  Ties break to the lower function id (sort) and the lower
    // cell index (scan), keeping the plan a pure function of the trace.
    const auto counts = workload.requestCountByFunction();
    std::vector<trace::FunctionId> order(workload.functionCount());
    std::iota(order.begin(), order.end(), trace::FunctionId{0});
    std::sort(order.begin(), order.end(),
              [&counts](trace::FunctionId a, trace::FunctionId b) {
                  if (counts[a] != counts[b])
                      return counts[a] > counts[b];
                  return a < b;
              });
    for (const auto fn : order) {
        std::uint32_t best = 0;
        for (std::uint32_t k = 1; k < cells; ++k)
            if (plan.cells[k].request_weight <
                plan.cells[best].request_weight)
                best = k;
        plan.cell_of_function[fn] = best;
        plan.cells[best].functions.push_back(fn);
        plan.cells[best].request_weight += counts[fn];
    }
    for (auto &cell : plan.cells)
        std::sort(cell.functions.begin(), cell.functions.end());

    return plan;
}

ShardedEngine::ShardedEngine(trace::TraceView workload,
                             EngineConfig config,
                             PolicyFactory policy_factory)
    : trace_(workload), config_(std::move(config)),
      policy_factory_(std::move(policy_factory))
{
    if (!policy_factory_)
        throw std::invalid_argument("ShardedEngine: null policy factory");
    plan_ = buildShardPlan(trace_, config_);

    // Sized exactly once: sub-traces (and the views the engines borrow
    // over them) live inside the cells, so the vector must never
    // reallocate after this point.  The cells themselves stay *empty*
    // until buildCell() — begin() materializes each one on the thread
    // that arms it, so the expensive state (sub-trace columns,
    // cluster, metrics) is first-touched NUMA-locally.
    cells_.resize(plan_.cells.size());
    if (plan_.cells.size() == 1)
        return; // pass-through: nothing to precompute

    // Cheap index maps, computed eagerly so buildCell(k) is a pure
    // gather.  A function's local id is its rank within its cell's
    // ascending function list — exactly what Trace::addFunction will
    // return when buildCell adds them in that order.
    local_id_.assign(trace_.functionCount(), 0);
    for (std::size_t k = 0; k < plan_.cells.size(); ++k) {
        const auto &functions = plan_.cells[k].functions;
        for (std::size_t j = 0; j < functions.size(); ++j)
            local_id_[functions[j]] =
                static_cast<trace::FunctionId>(j);
        cells_[k].orig_request.reserve(plan_.cells[k].request_weight);
    }
    for (std::uint64_t i = 0; i < trace_.requestCount(); ++i) {
        const auto k = plan_.cell_of_function[trace_.requestFunction(i)];
        cells_[k].orig_request.push_back(i);
    }
}

void
ShardedEngine::buildCell(std::size_t k)
{
    auto &cell = cells_[k];
    if (cell.engine)
        return;

    if (cells_.size() == 1) {
        // Pass-through: the original workload view, the original seed,
        // the original cluster — byte-identical to the plain Engine,
        // and zero-copy (the cell borrows the same backing pages).
        auto cell_config = config_;
        cell_config.shard_cells = 1;
        cell.engine = std::make_unique<Engine>(
            trace_, cell_config, policy_factory_(cell_config));
        cell.workload = trace_;
        return;
    }

    // Gather the cell's sub-trace: functions in ascending original-id
    // order (matching local_id_), requests in original sealed order, so
    // the sub-trace's stable sort preserves the identity mapping
    // between a cell request's index and its slot in orig_request.
    for (const auto fn : plan_.cells[k].functions)
        cell.sub_trace.addFunction(trace_.function(fn));
    for (const auto i : cell.orig_request)
        cell.sub_trace.addRequest(local_id_[trace_.requestFunction(i)],
                                  trace_.arrivalUs(i), trace_.execUs(i));
    cell.sub_trace.seal();
    cell.workload = trace::TraceView(cell.sub_trace);

    auto cell_config = config_;
    cell_config.shard_cells = 1;
    cell_config.cluster = plan_.cells[k].cluster;
    // Position-keyed RNG substream, like the runner's per-trial
    // streams: independent of thread count and of other cells.
    cell_config.seed = sim::substreamSeed(config_.seed,
                                          static_cast<std::uint64_t>(k));
    cell.engine = std::make_unique<Engine>(
        cell.workload, cell_config, policy_factory_(cell_config));
}

void
ShardedEngine::forCells(sim::ThreadPool *pool,
                        const std::function<void(std::size_t)> &body)
{
    if (pool != nullptr)
        pool->parallelFor(cells_.size(), body);
    else
        for (std::size_t k = 0; k < cells_.size(); ++k)
            body(k);
}

RunMetrics
ShardedEngine::run(sim::ThreadPool *pool)
{
    begin(pool);
    return finish(pool);
}

void
ShardedEngine::begin(sim::ThreadPool *pool)
{
    if (ran_)
        throw std::logic_error("ShardedEngine: begin() is single-shot");
    ran_ = true;
    forCells(pool, [this](std::size_t k) {
        buildCell(k);
        cells_[k].engine->begin();
    });
}

void
ShardedEngine::beginLive()
{
    if (ran_)
        throw std::logic_error("ShardedEngine: beginLive() is single-shot");
    ran_ = true;
    for (std::size_t k = 0; k < cells_.size(); ++k) {
        buildCell(k);
        cells_[k].engine->beginLive();
    }
}

std::uint64_t
ShardedEngine::admit(sim::SimTime when, trace::FunctionId function,
                     sim::SimTime exec_us)
{
    if (function >= plan_.cell_of_function.size())
        throw std::out_of_range("ShardedEngine::admit: unknown function");
    const auto k = plan_.cell_of_function[function];
    const trace::FunctionId local =
        cells_.size() == 1 ? function : local_id_[function];
    return cells_[k].engine->admit(when, local, exec_us);
}

void
ShardedEngine::closeStream()
{
    for (auto &cell : cells_)
        cell.engine->closeStream();
}

void
ShardedEngine::saveState(sim::StateWriter &writer) const
{
    if (!ran_)
        throw std::logic_error("ShardedEngine::saveState: begin() first");
    writer.put<std::uint64_t>(cells_.size());
    for (const auto &cell : cells_)
        cell.engine->saveState(writer);
}

void
ShardedEngine::loadState(sim::StateReader &reader)
{
    if (ran_)
        throw std::logic_error(
            "ShardedEngine::loadState: restore requires a fresh engine");
    // The partition and every cell's sub-trace are deterministic
    // functions of (trace, config); only the engines carry run state.
    for (std::size_t k = 0; k < cells_.size(); ++k)
        buildCell(k);
    const std::uint64_t cell_count = reader.get<std::uint64_t>();
    if (cell_count != cells_.size())
        throw std::runtime_error(
            "ShardedEngine: checkpoint does not match the partition "
            "(cell count mismatch)");
    for (auto &cell : cells_)
        cell.engine->loadState(reader);
    ran_ = true;
}

void
ShardedEngine::forEachCell(
    const std::function<void(Engine &, std::uint32_t)> &fn)
{
    if (!ran_)
        throw std::logic_error(
            "ShardedEngine::forEachCell: begin() or loadState() first");
    for (std::size_t k = 0; k < cells_.size(); ++k)
        fn(*cells_[k].engine, static_cast<std::uint32_t>(k));
}

std::size_t
ShardedEngine::stepUntil(sim::SimTime until, sim::ThreadPool *pool)
{
    if (!ran_)
        throw std::logic_error("ShardedEngine: begin() first");
    if (pool == nullptr) {
        // Serial path, allocation-free: the live orchestrator steps
        // between every admission, so this runs per request.
        std::size_t total = 0;
        for (auto &cell : cells_)
            total += cell.engine->stepUntil(until);
        return total;
    }
    std::vector<PaddedCount> executed(cells_.size());
    pool->parallelFor(cells_.size(), [this, until, &executed](std::size_t k) {
        executed[k].value = cells_[k].engine->stepUntil(until);
    });
    std::size_t total = 0;
    for (const auto &count : executed)
        total += count.value;
    return total;
}

RunMetrics
ShardedEngine::finish(sim::ThreadPool *pool)
{
    if (!ran_)
        throw std::logic_error("ShardedEngine: begin() first");

    // Drain every cell; each result lands at its cell index, so the
    // reduction below is independent of completion order.
    std::vector<RunMetrics> per_cell(cells_.size());
    forCells(pool, [this, &per_cell](std::size_t k) {
        per_cell[k] = cells_[k].engine->finish();
    });
    return merge(std::move(per_cell));
}

RunMetrics
ShardedEngine::merge(std::vector<RunMetrics> per_cell)
{
    if (cells_.size() == 1)
        return std::move(per_cell[0]);

    // Canonical cell-order fold on the calling thread.
    RunMetrics merged = std::move(per_cell[0]);
    std::vector<RequestOutcome> scattered;
    if (config_.record_per_request) {
        scattered.resize(trace_.requestCount());
        for (std::size_t i = 0; i < merged.outcomes.size(); ++i)
            scattered[cells_[0].orig_request[i]] = merged.outcomes[i];
    }
    for (std::size_t k = 1; k < cells_.size(); ++k) {
        merged.mergeConcurrent(per_cell[k]);
        if (config_.record_per_request)
            for (std::size_t i = 0; i < per_cell[k].outcomes.size(); ++i)
                scattered[cells_[k].orig_request[i]] =
                    per_cell[k].outcomes[i];
    }
    merged.outcomes = std::move(scattered);
    return merged;
}

bool
ShardedEngine::drained() const
{
    if (!ran_)
        return false;
    for (const auto &cell : cells_)
        if (!cell.engine || !cell.engine->drained())
            return false;
    return true;
}

std::uint64_t
ShardedEngine::eventsExecuted() const
{
    std::uint64_t sum = 0;
    for (const auto &cell : cells_)
        if (cell.engine)
            sum += cell.engine->eventsExecuted();
    return sum;
}

} // namespace cidre::core

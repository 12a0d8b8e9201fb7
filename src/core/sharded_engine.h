/**
 * @file
 * Intra-trial sharded simulation: one large trial executed as a set of
 * independent cluster cells, deterministically, across a thread pool.
 *
 * ## The model
 *
 * EngineConfig::shard_cells partitions the simulated system itself:
 * the workers are split into `cells` contiguous slices (each with its
 * proportional share of the keep-alive budget) and every function is
 * pinned to exactly one cell — the longest-processing-time assignment
 * over per-function request counts, so cells carry near-equal event
 * volume even under Zipf-skewed popularity.  Placement sweeps, memory
 * reclaim, the deferred-provision FIFO and the maintenance tick are all
 * cell-local.  This mirrors how production FaaS fleets actually scale
 * out (placement cells / stamps) and is what makes sharding sound: the
 * monolithic engine's decision path is globally coupled (every
 * provision may scan every worker and evict any function's container),
 * so its exact event interleaving cannot be reproduced by concurrent
 * shards — but a partitioned cluster factorizes *by construction*.
 *
 * ## The determinism contract
 *
 * A cell is simulated by an ordinary single-threaded core::Engine on
 * its sub-trace and sub-cluster, with its RNG substream derived as
 * sim::substreamSeed(config.seed, cell) — position-keyed, like the
 * experiment runner's per-trial streams.  Cells share nothing mutable,
 * results land at their cell index, and the final reduction folds them
 * in canonical cell order on the calling thread.  Consequently the
 * number of threads driving the cells (the `--shards` knob) is a pure
 * wall-clock knob: `--shards 1`, `2` and `4` produce bit-identical
 * metrics, and with shard_cells == 1 the sharded runtime is a perfect
 * pass-through of the plain Engine (same trace object, same seed, same
 * bytes out — pinned by the golden tests).  That is why the CLI, the
 * experiment runner, `tune` and `live` construct only ShardedEngine,
 * whatever the cell count: one code path serves every shape.
 *
 * What changes results is the *model* parameter shard_cells itself:
 * a 4-cell cluster is a different (partitioned) system than the
 * monolithic one, exactly as a 4-stamp deployment differs from one
 * giant stamp.  Pick cells once per experiment; sweep threads freely.
 *
 * ## Execution (wall-clock only — never results)
 *
 * There is one driver: begin(pool), any number of stepUntil(t, pool),
 * then finish(pool); run(pool) is begin(pool) + finish(pool), like
 * Engine::run().  Each call is one loop over the cells on the pool
 * supplying the shard threads (nullptr = serially on the caller).
 * Where those threads run is the pool's business alone
 * (sim::ThreadPool's pin list); the engine never pins.  begin(pool)
 * builds every cell *on the thread that arms it* (first-touch), so a
 * cell's sub-trace, cluster state and metrics pages are allocated on
 * that thread's NUMA node.  CellRuntime is cache-line aligned and
 * per-cell counters are padded, so neighbouring cells never
 * false-share.
 */

#ifndef CIDRE_CORE_SHARDED_ENGINE_H
#define CIDRE_CORE_SHARDED_ENGINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "core/policy.h"
#include "sim/thread_pool.h"
#include "sim/topology.h"
#include "trace/trace_view.h"

namespace cidre::core {

/** Floor of requests per cell enforced by autoCellCount(). */
inline constexpr std::uint64_t kMinRequestsPerCell = 4096;

/**
 * The `--cells auto` planner: derive a cell count from the workload,
 * the config and the machine.  Aims for one cell per unit of real
 * parallelism — max(shard_threads, physical cores) — then clamps so
 * the partition stays sound: at most one cell per cluster worker, per
 * trace function, and per kMinRequestsPerCell requests (tiny traces
 * do not amortize partition overhead).  Always >= 1.
 *
 * The returned count is machine-dependent *by design* (that is the
 * point of auto); determinism is preserved because the count is
 * resolved once, recorded in EngineConfig::shard_cells, and the
 * partition is a pure function of (trace, shard_cells) from there —
 * identical machines or an explicit `--cells N` reproduce it exactly.
 */
std::uint32_t autoCellCount(trace::TraceView workload,
                            const EngineConfig &config,
                            unsigned shard_threads,
                            const sim::CpuTopology &topology);

/** Deterministic partition of one trial into independent cells. */
struct ShardPlan
{
    struct Cell
    {
        /** First worker (original cluster numbering) of the slice. */
        std::uint32_t first_worker = 0;
        std::uint32_t worker_count = 0;

        /** Functions pinned to this cell, ascending original ids. */
        std::vector<trace::FunctionId> functions;

        /** Total trace requests of those functions (balance weight). */
        std::uint64_t request_weight = 0;

        /** The cell's sub-cluster (worker slice + memory share). */
        cluster::ClusterConfig cluster;
    };

    std::vector<Cell> cells;

    /** Original function id -> owning cell index. */
    std::vector<std::uint32_t> cell_of_function;
};

/**
 * Compute the partition for @p config.shard_cells cells: contiguous
 * worker slices (per-worker capacity identical to the monolithic
 * split), functions assigned longest-processing-time by request count
 * (ties to the lower function id, then the lower cell index).  Pure
 * function of (trace, config) — never of thread count.
 */
ShardPlan buildShardPlan(trace::TraceView workload,
                         const EngineConfig &config);

/** Runs one (possibly partitioned) trial; see the file comment. */
class ShardedEngine
{
  public:
    /**
     * Builds one policy bundle per cell: policy state (CIP rankings,
     * busy-completion views, window estimates) is strictly cell-local,
     * so each cell's engine gets a fresh bundle constructed from the
     * cell's own EngineConfig.
     */
    using PolicyFactory =
        std::function<OrchestrationPolicy(const EngineConfig &)>;

    /**
     * @param workload view of a sealed trace (borrowed; the backing
     *        store must outlive the engine).  config.shard_cells
     *        selects the partition; with 1 the original backing data
     *        is used unpartitioned (zero-copy pass-through).
     */
    ShardedEngine(trace::TraceView workload, EngineConfig config,
                  PolicyFactory policy_factory);

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    /**
     * Run the whole trial and return the merged metrics: begin(pool)
     * then finish(pool).  @p pool supplies the shard threads (nullptr
     * = run cells serially on the calling thread).  The result is
     * bit-identical for every pool, pinned or not: the pool is a pure
     * wall-clock knob.  Single-shot, like Engine::run().
     */
    RunMetrics run(sim::ThreadPool *pool = nullptr);

    // ---- stepped execution --------------------------------------------

    /**
     * Build and arm every cell without executing events, cells in
     * parallel on @p pool (nullptr = serially on the calling thread).
     * Each cell is built on the thread that arms it (first-touch
     * placement).  Single-shot.
     */
    void begin(sim::ThreadPool *pool = nullptr);

    /**
     * One step: drive every cell up to and including @p until
     * (simulated time), cells in parallel on @p pool.  The step
     * boundary is a barrier — all cells reach @p until before the call
     * returns.  @return events executed across cells this step.
     */
    std::size_t stepUntil(sim::SimTime until,
                          sim::ThreadPool *pool = nullptr);

    /**
     * Drain the remaining events of every cell (in parallel on
     * @p pool), then merge: metrics fold in canonical cell order via
     * RunMetrics::mergeConcurrent, and per-request outcome logs are
     * scattered back to original trace request indices.
     */
    RunMetrics finish(sim::ThreadPool *pool = nullptr);

    // ---- live (stream-driven) execution -------------------------------

    /**
     * Arm every cell for stream-driven admission (Engine::beginLive):
     * requests enter via admit(), routed to their owning cell.  The
     * partition (and each cell's RNG substream) is the same pure
     * function of (trace, config) as a trace-driven run, so a live run
     * fed the trace's exact arrival sequence merges bit-identical
     * metrics.  Cells are built serially on the calling thread.
     * Single-shot, mutually exclusive with run()/begin().
     */
    void beginLive();

    /**
     * Admit one request into the owning cell (see Engine::admit): the
     * decision runs synchronously on the calling thread.  Function ids
     * are *original* trace ids; translation to the cell's local id
     * happens here.  @return the request's index within its cell.
     */
    std::uint64_t admit(sim::SimTime when, trace::FunctionId function,
                        sim::SimTime exec_us);

    /** Close the stream of every cell (see Engine::closeStream). */
    void closeStream();

    /** True once begin() ran and every cell's queue is drained. */
    bool drained() const;

    /** Simulation events executed so far, summed over cells. */
    std::uint64_t eventsExecuted() const;

    std::size_t cellCount() const { return cells_.size(); }
    const ShardPlan &plan() const { return plan_; }

    // ---- checkpoint/restore -------------------------------------------

    /**
     * Serialize every cell's engine state (canonical cell order) after
     * begin(); see Engine::saveState.  The partition itself is not
     * saved — it is a pure function of (trace, config) and is rebuilt
     * deterministically on restore.
     */
    void saveState(sim::StateWriter &writer) const;

    /**
     * Restore a checkpoint into a freshly-constructed sharded engine
     * (same workload, config, policy factory): builds every cell, loads
     * each cell's engine state, and leaves the run ready for
     * stepUntil()/finish().  Throws like Engine::loadState.
     */
    void loadState(sim::StateReader &reader);

    /** The per-cell engine (tests / telemetry; cell must be built). */
    const Engine &cellEngine(std::size_t cell) const
    {
        return *cells_.at(cell).engine;
    }

    /**
     * Visit every cell engine in canonical cell order (the `tune` fork
     * point: swap policies / reseed each cell between steps).  Requires
     * the cells to be built — true after begin() or loadState().  Runs
     * on the calling thread; call at a quiescent point (between
     * stepUntil() calls).
     */
    void forEachCell(const std::function<void(Engine &, std::uint32_t)> &fn);

  private:
    /**
     * Cache-line aligned so neighbouring cells' hot state (engine
     * pointer, sub-trace headers) never shares a line — shard workers
     * write their own cell's state concurrently.
     */
    struct alignas(64) CellRuntime
    {
        /** Owned sub-trace; unused in the shard_cells == 1 pass-through. */
        trace::Trace sub_trace;
        /** View of sub_trace, or of the original workload (cells == 1). */
        trace::TraceView workload;
        /**
         * Sub-trace request index -> original trace request index
         * (empty in the pass-through, where they coincide).
         */
        std::vector<std::uint64_t> orig_request;
        std::unique_ptr<Engine> engine;
    };

    /** Padded counter slot: one writer per slot, no false sharing. */
    struct alignas(64) PaddedCount
    {
        std::uint64_t value = 0;
    };

    /**
     * Materialize cell @p k (gather + seal its sub-trace, construct its
     * engine) on the *calling* thread — the first-touch half of NUMA
     * placement: begin() invokes it from the loop body that arms the
     * cell, so the cell's pages are local to that thread's node.
     * Idempotent; never called concurrently for the same k.
     */
    void buildCell(std::size_t k);

    /** body(k) for every cell, in parallel on @p pool or serially. */
    void forCells(sim::ThreadPool *pool,
                  const std::function<void(std::size_t)> &body);

    /** Canonical cell-order fold of per-cell results (see finish()). */
    RunMetrics merge(std::vector<RunMetrics> per_cell);

    trace::TraceView trace_;
    EngineConfig config_;
    PolicyFactory policy_factory_; //!< kept for lazy cell builds
    ShardPlan plan_;
    std::vector<CellRuntime> cells_;
    /** Original function id -> id within its cell's sub-trace. */
    std::vector<trace::FunctionId> local_id_;
    bool ran_ = false;
};

} // namespace cidre::core

#endif // CIDRE_CORE_SHARDED_ENGINE_H

/**
 * @file
 * Per-run result metrics: everything the paper's figures report.
 */

#ifndef CIDRE_CORE_METRICS_H
#define CIDRE_CORE_METRICS_H

#include <array>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "stats/latency_histogram.h"
#include "stats/summary.h"

namespace cidre::sim {
class StateReader;
class StateWriter;
} // namespace cidre::sim

namespace cidre::core {

/**
 * How a request's execution began.
 *
 * Warm        — dispatched immediately into a free warm slot (a "hit");
 * DelayedWarm — waited for a busy warm container (paper's new state);
 * Cold        — waited for a freshly provisioned container (a "miss");
 * Restored    — waited for a CodeCrunch compressed container to inflate.
 */
enum class StartType : std::uint8_t
{
    Warm = 0,
    DelayedWarm,
    Cold,
    Restored,
    kCount,
};

const char *startTypeName(StartType type);

/** Outcome of one request (retained when record_per_request is set).
 *  Checkpointed raw, so its padding is an explicit zeroed member. */
struct RequestOutcome
{
    StartType type = StartType::Warm;
    std::uint8_t zero_pad[7] = {};
    sim::SimTime wait_us = 0; //!< invocation overhead
    sim::SimTime exec_us = 0;

    /**
     * Counterfactual queuing delay at arrival: how long this request
     * would have waited for the earliest busy container of its function
     * to free up, had it queued instead of whatever the policy chose.
     * -1 when the function had no busy container (or no miss occurred).
     * Drives the §2.4 what-if study (Figs. 5/6).
     */
    sim::SimTime counterfactual_queue_us = -1;
};
static_assert(sizeof(RequestOutcome) == 32,
              "RequestOutcome has no implicit padding");

/**
 * Aggregated results of one simulation run.
 *
 * The engine feeds it; bench binaries read it.  Key derived quantities:
 *  - avgOverheadRatio(): mean of wait/(wait+exec) over requests — the
 *    paper's "average overhead ratio" (Figs. 7, 8, 12, 15, 17, 18, 21);
 *  - cold/warm/delayed ratios (Fig. 12(b,d), Table 2);
 *  - overhead / E2E distributions (Figs. 13, 14, 19, 20);
 *  - average memory usage (Fig. 16).
 */
class RunMetrics
{
  public:
    /** Record a request beginning execution. */
    void recordStart(StartType type, sim::SimTime wait_us,
                     sim::SimTime exec_us);

    /** Note a memory-occupancy change (time-weighted averaging). */
    void noteMemoryUsage(sim::SimTime now, std::int64_t used_mb);

    /** Close the memory integral and record the makespan. */
    void finalize(sim::SimTime now);

    /**
     * Absorb the aggregates of another finalized run (sweep reduction).
     *
     * Deterministic in the operand order: merging the same sequence of
     * runs always yields bit-identical aggregates, which is why the
     * experiment runner reduces trial results strictly in submission
     * order regardless of which thread finished first.  Semantics of
     * the merged run:
     *  - counters, request counts, distributions and outcome logs
     *    accumulate;
     *  - makespan() becomes the *total* simulated time across runs, so
     *    avgMemoryGb() stays the time-weighted mean over all trials;
     *  - peak memory is the maximum across runs.
     * Both runs must be finalized; throws std::logic_error otherwise.
     */
    void merge(const RunMetrics &other);

    /**
     * Absorb another finalized run that simulated the SAME time span
     * concurrently (the cells of one sharded trial), rather than a
     * disjoint span appended to this one:
     *  - counters, request counts and distributions accumulate exactly
     *    as in merge();
     *  - makespan() becomes the *maximum* across cells (the trial's
     *    span), and the memory-time integrals sum, so avgMemoryGb() is
     *    the aggregate occupancy of the whole partitioned cluster;
     *  - peak memory is the *sum* of cell peaks — an upper bound, since
     *    cell peaks need not coincide in simulated time;
     *  - per-request outcome logs are NOT concatenated (sub-trace
     *    request indices are meaningless in the merged frame); the
     *    sharded runtime scatters them back to original indices itself.
     * Deterministic in the operand order, like merge().
     */
    void mergeConcurrent(const RunMetrics &other);

    // --- raw counters (engine-maintained) ------------------------------
    std::uint64_t containers_created = 0;
    /** Total memory of all containers ever provisioned (churn volume). */
    std::uint64_t provisioned_mb = 0;
    std::uint64_t evictions = 0;
    std::uint64_t expirations = 0;     //!< TTL-style reaps
    std::uint64_t compressions = 0;
    std::uint64_t prewarms = 0;
    std::uint64_t wasted_cold_starts = 0; //!< evicted without ever serving
    std::uint64_t deferred_provisions = 0;
    std::uint64_t cancelled_provisions = 0;
    /** Requests whose wait exceeded EngineConfig::slo_us (if set). */
    std::uint64_t slo_violations = 0;

    // --- per-type request counts ---------------------------------------
    std::uint64_t count(StartType type) const;
    std::uint64_t total() const;

    double ratio(StartType type) const;
    double coldRatio() const { return ratio(StartType::Cold); }
    double delayedRatio() const { return ratio(StartType::DelayedWarm); }
    /** Warm + Restored (restores are warm starts with a small warmup). */
    double warmRatio() const;

    /** Mean per-request wait/(wait+exec), as a percentage. */
    double avgOverheadRatioPct() const;

    /** Mean invocation overhead in milliseconds (exact µs sum / count). */
    double avgOverheadMs() const;

    /** Mean wait of one start type, in milliseconds. */
    double avgWaitMs(StartType type) const;

    /**
     * Invocation overhead (wait) distribution in integer microseconds.
     * percentile(q) is within 1/128 above the exact order statistic;
     * divide by 1e3 for milliseconds.
     */
    const stats::LatencyHistogram &overheadHistogram() const
    {
        return overhead_us_;
    }

    /**
     * End-to-end service time (wait + exec) distribution in integer
     * microseconds, with the same error bound as overheadHistogram().
     */
    const stats::LatencyHistogram &e2eHistogram() const { return e2e_us_; }

    /** Time-averaged occupied memory, in GB. */
    double avgMemoryGb() const;
    /** Peak occupied memory, in GB. */
    double peakMemoryGb() const;

    sim::SimTime makespan() const { return makespan_; }

    /** Per-request log; empty unless record_per_request was enabled. */
    std::vector<RequestOutcome> outcomes;

    /**
     * Checkpoint/restore of the full accumulator state (counters,
     * distributions, memory integral and outcome log).
     */
    void saveState(sim::StateWriter &writer) const;
    void loadState(sim::StateReader &reader);

  private:
    /** Shared accumulation of merge()/mergeConcurrent(). */
    void mergeAggregates(const RunMetrics &other);

    std::array<std::uint64_t,
               static_cast<std::size_t>(StartType::kCount)> counts_{};
    std::array<stats::OnlineSummary,
               static_cast<std::size_t>(StartType::kCount)> wait_by_type_;
    stats::OnlineSummary overhead_ratio_;
    stats::LatencyHistogram overhead_us_;
    stats::LatencyHistogram e2e_us_;

    // Time-weighted memory integral.
    double mb_time_integral_ = 0.0;
    std::int64_t current_used_mb_ = 0;
    std::int64_t peak_used_mb_ = 0;
    sim::SimTime last_memory_change_ = 0;
    sim::SimTime makespan_ = 0;
    bool finalized_ = false;
};

} // namespace cidre::core

#endif // CIDRE_CORE_METRICS_H

/**
 * @file
 * The live orchestrator: the single consumer thread that drains the
 * ingest ring and admits requests into an engine, one synchronous
 * placement/scaling decision at a time.
 *
 * The loop is the production shape of the decision path:
 *
 *   drain a batch -> for each request, catch the virtual clock up to
 *   just before the arrival (simulated completions, expiries and
 *   maintenance run *between* admissions) -> admit, timing the
 *   decision -> record the wall latency in a log-bucketed histogram.
 *
 * The timed window covers exactly what a production control plane
 * cannot take off the critical path: the admission decision itself
 * plus any simulated event ordered at the same instant before it.
 * Catch-up work strictly before the arrival is stepped untimed.
 *
 * Timestamp discipline: admissions must be nondecreasing, so arrivals
 * that drain out of global order (possible only with concurrent
 * producers on independent lanes) are clamped forward to the previous
 * admission's timestamp and counted, never reordered retroactively —
 * the same choice a streaming ingest tier makes when merging shards.
 */

#ifndef CIDRE_LIVE_ORCHESTRATOR_H
#define CIDRE_LIVE_ORCHESTRATOR_H

#include <atomic>
#include <cstdint>

#include "core/sharded_engine.h"
#include "live/ingest_ring.h"
#include "stats/latency_histogram.h"

namespace cidre::live {

/** Knobs of the admission loop. */
struct OrchestratorOptions
{
    /** Max requests drained (and admitted) per ring visit. */
    std::size_t batch = 256;
    /** CPU to pin the admission thread to; -1 = unpinned. */
    int pin_cpu = -1;
};

/** What the admission loop measured. */
struct LiveStats
{
    /** Wall nanoseconds per admission decision, log-bucketed. */
    stats::LatencyHistogram decision_ns;
    std::uint64_t admitted = 0;
    /** Out-of-order arrivals clamped forward (multi-producer only). */
    std::uint64_t reordered = 0;
    /** Wall seconds spent in the admission loop (drain + admit). */
    double wall_seconds = 0.0;

    /** Sustained admission throughput over the loop's lifetime. */
    double admitRate() const
    {
        return wall_seconds > 0.0
            ? static_cast<double>(admitted) / wall_seconds
            : 0.0;
    }
};

/**
 * Drain @p ring into @p engine until @p producers_done is observed with
 * the ring empty, then close the engine's stream.  After sim::kPoolSpin
 * empty-ring polls in a row the consumer yields its core.  The engine
 * must already be armed (beginLive()); the caller finishes it (and
 * merges metrics) afterwards — this function owns only the admission
 * loop.  Cells are stepped serially on the calling thread.
 */
LiveStats runLive(core::ShardedEngine &engine, IngestRing &ring,
                  const std::atomic<bool> &producers_done,
                  const OrchestratorOptions &options = {});

} // namespace cidre::live

#endif // CIDRE_LIVE_ORCHESTRATOR_H

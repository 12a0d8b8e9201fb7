#include "live/orchestrator.h"

#include <chrono>
#include <thread>
#include <vector>

#include "sim/thread_pool.h"
#include "sim/topology.h"

namespace cidre::live {

LiveStats
runLive(core::ShardedEngine &engine, IngestRing &ring,
        const std::atomic<bool> &producers_done,
        const OrchestratorOptions &options)
{
    using Clock = std::chrono::steady_clock;
    LiveStats stats;
    sim::ScopedAffinity pin(options.pin_cpu);
    std::vector<IngestRequest> batch(options.batch > 0 ? options.batch : 1);

    sim::SimTime last = 0;
    unsigned idle_polls = 0;
    const auto loop_start = Clock::now();
    for (;;) {
        std::size_t n = ring.drain(batch.data(), batch.size());
        if (n == 0 && producers_done.load(std::memory_order_acquire)) {
            // Check done *before* the re-drain: the flag is set after
            // the final push, so an empty re-drain proves completion; a
            // non-empty one holds the final pushes, admitted below.
            n = ring.drain(batch.data(), batch.size());
            if (n == 0)
                break;
        }
        if (n == 0) {
            if (++idle_polls >= sim::kPoolSpin) {
                idle_polls = 0;
                std::this_thread::yield();
            }
            continue;
        }
        idle_polls = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const IngestRequest &req = batch[i];
            sim::SimTime when = req.arrival_us;
            if (when < last) {
                when = last;
                ++stats.reordered;
            }
            last = when;
            // Untimed catch-up: everything strictly before the arrival.
            if (when > 0)
                engine.stepUntil(when - 1, nullptr);
            const auto t0 = Clock::now();
            engine.admit(when, req.function, req.exec_us);
            const auto t1 = Clock::now();
            stats.decision_ns.record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0)
                    .count()));
            ++stats.admitted;
        }
    }
    engine.closeStream();
    stats.wall_seconds =
        std::chrono::duration<double>(Clock::now() - loop_start).count();
    return stats;
}

} // namespace cidre::live

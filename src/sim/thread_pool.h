/**
 * @file
 * A reusable fixed-size thread pool for deterministic fan-out.
 *
 * Both parallel layers of the harness — trial-level fan-out in
 * exp::ExperimentRunner and intra-trial shard execution in
 * core::ShardedEngine — need the same primitive: run body(0..count-1)
 * across a fixed set of threads such that a deterministic body keyed on
 * its index yields identical results for any thread count.  The pool
 * provides exactly that, with two properties the transient
 * thread-per-call design it replaces lacked:
 *
 *  - **Threads are hoisted.**  Workers are spawned once and reused
 *    across parallelFor() calls, so a sweep that dispatches thousands
 *    of trials (or a sharded trial stepped through stepUntil()) does
 *    not pay a spawn/join round trip per call.
 *  - **The caller participates.**  parallelFor() claims indices on the
 *    calling thread too, so a pool constructed with N threads applies
 *    exactly N threads of compute, and a pool is usable (serially) even
 *    with zero helper threads.
 *
 * Scheduling is a single atomic claim counter — no work stealing, no
 * per-thread queues — copied from the discipline exp::parallelFor
 * established: claim order may vary between runs; results, landing at
 * their index, never do.
 *
 * ## Placement (slot s runs on pin_cpus[s % size])
 *
 * The pool is the one place that decides where a thread runs.  A pool
 * built with a pin list gives every slot one CPU: helper slot s pins
 * itself to pin_cpus[s % size] at spawn, and the calling thread
 * (slot 0) is pinned to pin_cpus[0] for the duration of each loop and
 * then gets its previous mask back.  So a thread keeps its CPU however
 * many indices it claims, and two slots share a CPU only when the pool
 * has more threads than the list has CPUs.  Pins are best-effort
 * (sim::pinCurrentThread): a refused pin leaves that thread unpinned.
 * An empty list never touches affinity at all.
 *
 * ## Wake-up latency (spin-then-park)
 *
 * A helper that parked on the condvar between two back-to-back loops
 * pays a futex wake plus scheduler latency before it can claim its
 * first index — longer than a short loop itself.  Helpers therefore
 * spin on the (atomic) generation counter for kPoolSpin iterations
 * after finishing a loop before parking, and the caller's completion
 * wait spins the same way before blocking.  The budget is a constant:
 * it covers gaps of a few microseconds between loops, and spinning
 * only ever costs the idle helper's own CPU time; correctness is
 * untouched (the park path re-checks the predicate under the mutex
 * that publishes it).
 */

#ifndef CIDRE_SIM_THREAD_POOL_H
#define CIDRE_SIM_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cidre::sim {

/**
 * Polls of a wake predicate before a waiting thread parks (the pool's
 * helpers and caller) or yields (the ingest ring and live consumer).
 */
inline constexpr unsigned kPoolSpin = 1u << 12;

/** Fixed set of worker threads executing indexed parallel loops. */
class ThreadPool
{
  public:
    /**
     * A loop body: receives the claimed index plus the stable slot of
     * the executing thread (0 = the calling thread, 1..threads()-1 =
     * helpers).  The slot exists so bodies can select per-slot scratch
     * (e.g. nested per-slot pools); deterministic bodies must not let
     * it influence results.
     */
    using Body = std::function<void(std::size_t index, unsigned slot)>;

    /**
     * @param threads total threads applied by parallelFor(), including
     *        the calling thread; 0 and 1 both mean "no helpers".
     * @param pin_cpus slot s runs on pin_cpus[s % size] (see the file
     *        comment; typically sim::resolvePinCpus(...)); empty =
     *        unpinned.
     */
    explicit ThreadPool(unsigned threads, std::vector<int> pin_cpus = {});

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Joins the helper threads (after draining any active loop). */
    ~ThreadPool();

    /** Total threads applied to a loop (helpers + the caller). */
    unsigned threadCount() const { return helpers_ + 1; }

    /** Helpers whose spawn-time pin succeeded (telemetry only). */
    unsigned pinnedHelpers() const
    {
        return pinned_helpers_.load(std::memory_order_relaxed);
    }

    /**
     * Run body(0) ... body(count-1), returning when all ran.  The
     * calling thread participates as slot 0 (pinned for the loop's
     * duration when the pool has a pin list); helper threads assist.
     * If bodies throw, the exception of the smallest failing index is
     * rethrown after the loop drains.
     *
     * Not reentrant: a nested call from inside a body (same pool) runs
     * its loop serially on the calling thread, where it is, rather than
     * deadlocking.
     */
    void parallelFor(std::size_t count, const Body &body);

    /** Convenience overload for bodies that ignore the thread slot. */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

  private:
    struct Loop
    {
        const Body *body = nullptr;
        std::size_t count = 0;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::vector<std::exception_ptr> *errors = nullptr;
    };

    void workerMain(unsigned slot, int pin_cpu);
    /** Publish @p loop to the helpers, drain it, wait for stragglers. */
    void share(Loop &loop);
    /** Claim-and-run until the loop is exhausted. */
    static void drain(Loop &loop, unsigned slot);

    unsigned helpers_ = 0;
    /** Slot s runs on pin_cpus_[s % size]; empty = unpinned. */
    std::vector<int> pin_cpus_;
    std::vector<std::thread> threads_;
    std::atomic<unsigned> pinned_helpers_{0};

    std::mutex mutex_;
    std::condition_variable work_cv_;   //!< helpers wait for a loop
    std::condition_variable done_cv_;   //!< the caller waits for drain
    Loop *active_ = nullptr;            //!< published under mutex_
    /**
     * Bumped (under mutex_) per published loop.  Atomic so idle helpers
     * can spin on it outside the mutex before parking; the mutex-held
     * store still pairs with the condvar predicate for the park path.
     */
    std::atomic<std::uint64_t> generation_{0};
    /**
     * Helpers currently holding a pointer into the active loop.  A
     * helper checks in (under mutex_) when it picks up active_ and
     * checks out after drain() returns; the caller's completion wait
     * requires participants_ == 0 so the stack-allocated Loop cannot be
     * destroyed while a helper can still dereference it.  Atomic so the
     * caller's pre-park spin can poll it outside the mutex.
     */
    std::atomic<unsigned> participants_{0};
    std::atomic<bool> shutdown_{false};
    /** True while a parallelFor is running (reentrancy detection). */
    std::atomic<bool> in_loop_{false};
};

} // namespace cidre::sim

#endif // CIDRE_SIM_THREAD_POOL_H

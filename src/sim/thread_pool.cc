#include "sim/thread_pool.h"

#include <utility>

#include "sim/topology.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace cidre::sim {

namespace {

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/** Rethrow the exception of the smallest failing index, if any. */
void
rethrowFirst(const std::vector<std::exception_ptr> &errors)
{
    for (const auto &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace

ThreadPool::ThreadPool(unsigned threads, std::vector<int> pin_cpus)
    : helpers_(threads <= 1 ? 0 : threads - 1),
      pin_cpus_(std::move(pin_cpus))
{
    threads_.reserve(helpers_);
    for (unsigned slot = 1; slot <= helpers_; ++slot) {
        const int pin_cpu = pin_cpus_.empty()
            ? -1
            : pin_cpus_[slot % pin_cpus_.size()];
        threads_.emplace_back(
            [this, slot, pin_cpu] { workerMain(slot, pin_cpu); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_.store(true, std::memory_order_release);
    }
    work_cv_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

void
ThreadPool::drain(Loop &loop, unsigned slot)
{
    for (;;) {
        const std::size_t i =
            loop.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= loop.count)
            return;
        try {
            (*loop.body)(i, slot);
        } catch (...) {
            (*loop.errors)[i] = std::current_exception();
        }
        loop.done.fetch_add(1, std::memory_order_acq_rel);
    }
}

void
ThreadPool::workerMain(unsigned slot, int pin_cpu)
{
    if (pin_cpu >= 0 && pinCurrentThread(pin_cpu))
        pinned_helpers_.fetch_add(1, std::memory_order_relaxed);

    std::uint64_t seen = 0;
    for (;;) {
        // Spin-then-park: a loop published within the spin budget is
        // picked up without any futex traffic; the park path below
        // re-checks the same predicate under the mutex.
        for (unsigned i = 0; i < kPoolSpin; ++i) {
            if (shutdown_.load(std::memory_order_acquire) ||
                generation_.load(std::memory_order_acquire) != seen)
                break;
            cpuRelax();
        }
        Loop *loop = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [&] {
                return shutdown_.load(std::memory_order_relaxed) ||
                       (active_ != nullptr &&
                        generation_.load(std::memory_order_relaxed) !=
                            seen);
            });
            if (shutdown_.load(std::memory_order_relaxed))
                return;
            seen = generation_.load(std::memory_order_relaxed);
            loop = active_;
            // Check in while still holding the mutex: from here on this
            // helper holds a pointer into the caller's stack frame, and
            // the caller must not return until we check back out.
            participants_.fetch_add(1, std::memory_order_relaxed);
        }
        drain(*loop, slot);
        // Check out and wake the caller.  Decrementing under the mutex
        // pairs with the caller's predicate check, so the notification
        // cannot slip into the gap between the caller testing the
        // predicate and blocking (a lost wakeup).
        {
            std::lock_guard<std::mutex> lock(mutex_);
            participants_.fetch_sub(1, std::memory_order_release);
        }
        done_cv_.notify_one();
    }
}

void
ThreadPool::parallelFor(std::size_t count, const Body &body)
{
    if (count == 0)
        return;

    std::vector<std::exception_ptr> errors(count);
    Loop loop;
    loop.body = &body;
    loop.count = count;
    loop.errors = &errors;

    // A nested call from inside an active loop runs inline on the
    // thread that made it, which keeps its own slot's placement
    // (deterministic and deadlock-free).
    bool expected = false;
    if (!in_loop_.compare_exchange_strong(expected, true)) {
        drain(loop, 0);
        rethrowFirst(errors);
        return;
    }
    {
        // The caller is slot 0 for the duration of the loop.
        ScopedAffinity pin(pin_cpus_.empty() ? -1 : pin_cpus_[0]);
        if (helpers_ == 0 || count == 1)
            drain(loop, 0);
        else
            share(loop);
    }
    in_loop_.store(false);
    rethrowFirst(errors);
}

void
ThreadPool::share(Loop &loop)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        active_ = &loop;
        generation_.fetch_add(1, std::memory_order_release);
    }
    work_cv_.notify_all();

    // Participate, then wait for the helpers' stragglers.  Waiting for
    // done == count alone is not enough: a helper that checked in may
    // still be inside drain() (re-reading loop.next/loop.count) after
    // the last body finished, so the caller must also wait for every
    // participant to check out before destroying the stack-allocated
    // Loop.  A helper that has not yet checked in when we clear active_
    // never picks the loop up at all.
    drain(loop, 0);
    const auto finished = [&] {
        return loop.done.load(std::memory_order_acquire) == loop.count &&
               participants_.load(std::memory_order_acquire) == 0;
    };
    for (unsigned i = 0; i < kPoolSpin && !finished(); ++i)
        cpuRelax();
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, finished);
    active_ = nullptr;
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    parallelFor(count,
                Body([&body](std::size_t i, unsigned) { body(i); }));
}

} // namespace cidre::sim

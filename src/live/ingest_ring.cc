#include "live/ingest_ring.h"

#include <thread>

#include "sim/thread_pool.h"

namespace cidre::live {

namespace {

/** Round @p n up to a power of two, minimum 2. */
std::size_t
ceilPow2(std::size_t n)
{
    std::size_t p = 2;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

IngestRing::IngestRing(std::size_t capacity)
    : slots_(ceilPow2(capacity)), mask_(slots_.size() - 1)
{
    for (std::size_t i = 0; i < slots_.size(); ++i)
        slots_[i].seq.store(i, std::memory_order_relaxed);
}

bool
IngestRing::tryPush(const IngestRequest &req)
{
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
        Slot &slot = slots_[pos & mask_];
        const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
        const auto diff = static_cast<std::int64_t>(seq) -
            static_cast<std::int64_t>(pos);
        if (diff == 0) {
            // The slot is free for exactly this position: claim it.
            if (tail_.compare_exchange_weak(pos, pos + 1,
                                            std::memory_order_relaxed)) {
                slot.value = req;
                slot.seq.store(pos + 1, std::memory_order_release);
                return true;
            }
            // CAS refreshed pos; retry against the new position.
        } else if (diff < 0) {
            // The slot still holds an unconsumed element one lap back:
            // the ring is full *right now*.  (A stale pos can only make
            // diff positive, so full is never reported spuriously.)
            return false;
        } else {
            pos = tail_.load(std::memory_order_relaxed);
        }
    }
}

void
IngestRing::pushBlocking(const IngestRequest &req,
                         std::atomic<std::uint64_t> &backpressure)
{
    // Same discipline as the thread pool's wake spin: burn a bounded
    // number of polls at full speed (the consumer drains in batches, so
    // space usually frees within microseconds), then yield the core.
    unsigned spins = 0;
    while (!tryPush(req)) {
        backpressure.fetch_add(1, std::memory_order_relaxed);
        if (++spins >= sim::kPoolSpin) {
            spins = 0;
            std::this_thread::yield();
        }
    }
}

std::size_t
IngestRing::drain(IngestRequest *out, std::size_t max)
{
    std::size_t n = 0;
    while (n < max) {
        Slot &slot = slots_[head_ & mask_];
        const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
        if (seq != head_ + 1)
            break; // next slot not yet published
        out[n++] = slot.value;
        // Mark the slot free for the producer one lap ahead.
        slot.seq.store(head_ + slots_.size(), std::memory_order_release);
        ++head_;
    }
    return n;
}

} // namespace cidre::live

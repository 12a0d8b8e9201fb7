#include "cluster/worker.h"

#include <stdexcept>

namespace cidre::cluster {

Worker::Worker(WorkerId id, std::int64_t capacity_mb, double speed_factor)
    : id_(id), capacity_mb_(capacity_mb), speed_factor_(speed_factor)
{
    if (capacity_mb <= 0)
        throw std::invalid_argument("Worker: capacity must be positive");
    if (speed_factor <= 0.0)
        throw std::invalid_argument("Worker: speed factor must be positive");
}

void
Worker::reserve(std::int64_t mb)
{
    if (mb < 0)
        throw std::logic_error("Worker::reserve: negative amount");
    if (!fits(mb))
        throw std::logic_error("Worker::reserve: over capacity");
    used_mb_ += mb;
}

void
Worker::release(std::int64_t mb)
{
    if (mb < 0)
        throw std::logic_error("Worker::release: negative amount");
    if (mb > used_mb_)
        throw std::logic_error("Worker::release: underflow");
    used_mb_ -= mb;
}

void
Worker::noteContainerAdded(std::int64_t mb)
{
    ++container_count_;
    container_mb_ += mb;
}

void
Worker::noteContainerRemoved(std::int64_t mb)
{
    if (container_count_ == 0)
        throw std::logic_error("Worker: container count underflow");
    --container_count_;
    container_mb_ -= mb;
}

void
Worker::noteContainerResized(std::int64_t delta_mb)
{
    container_mb_ += delta_mb;
}

void
Worker::restoreContainerMb(std::int64_t mb)
{
    if (mb > used_mb_)
        throw std::runtime_error(
            "Worker: checkpoint's containers hold more memory than the "
            "worker has in use");
    container_mb_ = mb;
}

} // namespace cidre::cluster

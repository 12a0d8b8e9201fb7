/**
 * @file
 * A worker server hosting function containers.
 */

#ifndef CIDRE_CLUSTER_WORKER_H
#define CIDRE_CLUSTER_WORKER_H

#include <cstdint>
#include <stdexcept>

#include "cluster/container.h"

namespace cidre::cluster {

/**
 * One server of the cluster: a memory budget plus a provisioning speed.
 *
 * Memory accounting is exact and asserted: reservations must be released
 * with the same amounts, which catches engine bookkeeping bugs early.
 */
class Worker
{
  public:
    Worker(WorkerId id, std::int64_t capacity_mb, double speed_factor = 1.0);

    WorkerId id() const { return id_; }
    std::int64_t capacityMb() const { return capacity_mb_; }
    std::int64_t usedMb() const { return used_mb_; }
    std::int64_t freeMb() const { return capacity_mb_ - used_mb_; }

    /**
     * Cold-start speed multiplier (IceBreaker/CodeCrunch heterogeneity):
     * effective provision latency = cold_start_us * speedFactor().
     * 1.0 everywhere models the homogeneous cluster of §5.1.
     */
    double speedFactor() const { return speed_factor_; }

    /** True if @p mb more can be reserved right now. */
    bool fits(std::int64_t mb) const { return freeMb() >= mb; }

    /** Reserve @p mb; throws std::logic_error if it does not fit. */
    void reserve(std::int64_t mb);

    /** Release @p mb; throws std::logic_error on underflow. */
    void release(std::int64_t mb);

    /** Containers currently charged to this worker (all states). */
    std::uint32_t containerCount() const { return container_count_; }

    /**
     * MB those containers hold.  usedMb() - containerMb() is what the
     * worker holds outside containers (RainbowCake's layer caches).
     */
    std::int64_t containerMb() const { return container_mb_; }

    /** A container of @p mb was charged to (removed from) this worker. */
    void noteContainerAdded(std::int64_t mb);
    void noteContainerRemoved(std::int64_t mb);
    /** A container here grew (delta > 0) or shrank (delta < 0). */
    void noteContainerResized(std::int64_t delta_mb);

    /**
     * Set containerMb() when the container slab is restored (it is
     * derived from the slab, not checkpointed).  Throws
     * std::runtime_error when @p mb exceeds usedMb().
     */
    void restoreContainerMb(std::int64_t mb);

    /**
     * Checkpoint/restore of the mutable accounting; identity fields
     * (id, capacity, speed) come from the cluster config and are
     * verified rather than overwritten.
     */
    template <typename Writer> void saveState(Writer &writer) const
    {
        writer.put(capacity_mb_);
        writer.put(used_mb_);
        writer.put(container_count_);
    }
    template <typename Reader> void loadState(Reader &reader)
    {
        const auto capacity = reader.template get<std::int64_t>();
        if (capacity != capacity_mb_)
            throw std::logic_error(
                "Worker: checkpoint capacity mismatch");
        used_mb_ = reader.template get<std::int64_t>();
        container_count_ = reader.template get<std::uint32_t>();
    }

  private:
    WorkerId id_;
    std::int64_t capacity_mb_;
    std::int64_t used_mb_ = 0;
    double speed_factor_;
    std::uint32_t container_count_ = 0;
    std::int64_t container_mb_ = 0;
};

} // namespace cidre::cluster

#endif // CIDRE_CLUSTER_WORKER_H

/**
 * @file
 * Unit tests for the cluster substrate (workers, containers, memory).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.h"
#include "sim/serialize.h"

namespace cidre::cluster {
namespace {

ClusterConfig
smallConfig()
{
    ClusterConfig config;
    config.workers = 3;
    config.total_memory_mb = 3 * 1000;
    return config;
}

TEST(Worker, ReserveReleaseAccounting)
{
    Worker w(0, 1000);
    EXPECT_EQ(w.freeMb(), 1000);
    w.reserve(400);
    EXPECT_EQ(w.usedMb(), 400);
    EXPECT_TRUE(w.fits(600));
    EXPECT_FALSE(w.fits(601));
    w.release(400);
    EXPECT_EQ(w.usedMb(), 0);
}

TEST(Worker, ErrorsOnBadAmounts)
{
    Worker w(0, 100);
    EXPECT_THROW(w.reserve(101), std::logic_error);
    EXPECT_THROW(w.reserve(-1), std::logic_error);
    EXPECT_THROW(w.release(1), std::logic_error);
    EXPECT_THROW(Worker(0, 0), std::invalid_argument);
    EXPECT_THROW(Worker(0, 100, 0.0), std::invalid_argument);
}

TEST(Cluster, SplitsMemoryAcrossWorkers)
{
    const ClusterConfig config{3, 3001, {}, {}};
    Cluster cl(config);
    EXPECT_EQ(cl.workerCount(), 3u);
    EXPECT_EQ(cl.totalCapacityMb(), 3001);
    EXPECT_EQ(cl.worker(0).capacityMb(), 1001); // remainder to worker 0
    EXPECT_EQ(cl.worker(1).capacityMb(), 1000);
}

TEST(Cluster, RejectsBadConfigs)
{
    EXPECT_THROW(Cluster(ClusterConfig{0, 100, {}, {}}),
                 std::invalid_argument);
    EXPECT_THROW(Cluster(ClusterConfig{3, 100, {1.0}, {}}),
                 std::invalid_argument);
}

TEST(Cluster, HonorsExplicitWorkerCapacities)
{
    ClusterConfig config;
    config.workers = 3;
    config.total_memory_mb = 59; // not used for the split
    config.worker_memory_mb = {19, 30, 10};
    Cluster cl(config);
    EXPECT_EQ(cl.totalCapacityMb(), 59);
    EXPECT_EQ(cl.worker(0).capacityMb(), 19);
    EXPECT_EQ(cl.worker(1).capacityMb(), 30);
    EXPECT_EQ(cl.worker(2).capacityMb(), 10);
}

TEST(Cluster, RejectsBadExplicitCapacities)
{
    ClusterConfig config;
    config.workers = 3;
    config.total_memory_mb = 3 * 1000;
    config.worker_memory_mb = {1000, 1000}; // one entry short
    EXPECT_THROW(Cluster{config}, std::invalid_argument);
    config.worker_memory_mb = {1000, 1000, 0}; // non-positive entry
    EXPECT_THROW(Cluster{config}, std::invalid_argument);
}

TEST(Cluster, CreateAndDestroyContainer)
{
    Cluster cl(smallConfig());
    const ContainerId id = cl.createContainer(
        0, 1, 300, 1, ProvisionReason::Demand, sim::sec(5));
    const Container &c = cl.container(id);
    EXPECT_TRUE(c.provisioning());
    EXPECT_EQ(c.worker, 1u);
    EXPECT_EQ(c.memory_mb, 300);
    EXPECT_EQ(cl.worker(1).usedMb(), 300);
    EXPECT_EQ(cl.cachedContainerCount(), 1u);

    cl.destroyContainer(id);
    EXPECT_TRUE(cl.container(id).evicted());
    EXPECT_EQ(cl.worker(1).usedMb(), 0);
    EXPECT_EQ(cl.cachedContainerCount(), 0u);
    EXPECT_THROW(cl.destroyContainer(id), std::logic_error);
}

TEST(Cluster, RecyclesEvictedSlots)
{
    Cluster cl(smallConfig());
    // Churn one container many times: the slab must stay at one record
    // (bounded by peak live population, not total churn) while the
    // creation counter and seq keep advancing.
    ContainerId last = kInvalidContainer;
    for (int i = 0; i < 100; ++i) {
        const ContainerId id = cl.createContainer(
            0, 0, 100, 1, ProvisionReason::Demand, sim::sec(i));
        EXPECT_EQ(cl.container(id).seq, static_cast<std::uint64_t>(i));
        if (i > 0) {
            EXPECT_EQ(id, last); // LIFO reuse of the freed slot
        }
        last = id;
        cl.destroyContainer(id);
    }
    EXPECT_EQ(cl.containerCount(), 1u);
    EXPECT_EQ(cl.createdTotal(), 100u);
    EXPECT_EQ(cl.cachedContainerCount(), 0u);
}

TEST(Cluster, RecycledSlotIsScrubbed)
{
    Cluster cl(smallConfig());
    const ContainerId id = cl.createContainer(
        0, 0, 100, 2, ProvisionReason::Prewarm, sim::sec(1));
    Container &c = cl.container(id);
    c.state = ContainerState::Live;
    c.use_count = 7;
    c.priority = 3.5;
    c.bound_queue.push_back({42, 0, 0});
    c.bound_queue.pop_front();
    c.active = 0;
    cl.destroyContainer(id);

    const ContainerId reused = cl.createContainer(
        1, 2, 200, 1, ProvisionReason::Demand, sim::sec(9));
    ASSERT_EQ(reused, id);
    const Container &r = cl.container(reused);
    EXPECT_EQ(r.seq, 1u);
    EXPECT_EQ(r.function, 1u);
    EXPECT_EQ(r.worker, 2u);
    EXPECT_EQ(r.use_count, 0u); // no state leaks from the prior tenant
    EXPECT_EQ(r.priority, 0.0);
    EXPECT_EQ(r.created_at, sim::sec(9));
    EXPECT_TRUE(r.bound_queue.empty());
}

TEST(Cluster, CannotDestroyBusyContainer)
{
    Cluster cl(smallConfig());
    const ContainerId id = cl.createContainer(
        0, 0, 100, 1, ProvisionReason::Demand, 0);
    Container &c = cl.container(id);
    c.state = ContainerState::Live;
    c.active = 1;
    EXPECT_THROW(cl.destroyContainer(id), std::logic_error);
}

TEST(Cluster, MostFreeWorker)
{
    Cluster cl(smallConfig());
    cl.createContainer(0, 0, 500, 1, ProvisionReason::Demand, 0);
    cl.createContainer(0, 1, 200, 1, ProvisionReason::Demand, 0);
    EXPECT_EQ(cl.mostFreeWorker(), 2u);
}

TEST(Cluster, CheapestWorkerFitting)
{
    ClusterConfig config = smallConfig();
    config.speed_factors = {1.0, 0.5, 2.0};
    Cluster cl(config);
    EXPECT_EQ(cl.cheapestWorkerFitting(100), 1u);
    // Fill the cheap worker: next cheapest that fits is worker 0.
    cl.createContainer(0, 1, 1000, 1, ProvisionReason::Demand, 0);
    EXPECT_EQ(cl.cheapestWorkerFitting(100), 0u);
}

TEST(Cluster, CompressionShrinksAndRestores)
{
    Cluster cl(smallConfig());
    const ContainerId id = cl.createContainer(
        0, 0, 600, 1, ProvisionReason::Demand, 0);
    Container &c = cl.container(id);
    c.state = ContainerState::Live;

    const std::int64_t freed = cl.compressContainer(id, 3.0);
    EXPECT_EQ(freed, 400);
    EXPECT_TRUE(c.compressed());
    EXPECT_EQ(c.memory_mb, 200);
    EXPECT_EQ(cl.worker(0).usedMb(), 200);

    cl.decompressContainer(id);
    EXPECT_TRUE(c.live());
    EXPECT_EQ(c.memory_mb, 600);
    EXPECT_EQ(cl.worker(0).usedMb(), 600);
}

TEST(Cluster, CompressionRequiresIdleLive)
{
    Cluster cl(smallConfig());
    const ContainerId id = cl.createContainer(
        0, 0, 600, 1, ProvisionReason::Demand, 0);
    EXPECT_THROW(cl.compressContainer(id, 3.0), std::logic_error);
    EXPECT_THROW(cl.decompressContainer(id), std::logic_error);
    Container &c = cl.container(id);
    c.state = ContainerState::Live;
    EXPECT_THROW(cl.compressContainer(id, 1.0), std::invalid_argument);
}

TEST(Cluster, TracksTheMemoryItsContainersHold)
{
    Cluster cl(smallConfig());
    const ContainerId a = cl.createContainer(
        0, 0, 600, 1, ProvisionReason::Demand, 0);
    cl.createContainer(1, 0, 100, 1, ProvisionReason::Demand, 0);
    cl.worker(0).reserve(50); // memory held outside containers
    EXPECT_EQ(cl.worker(0).containerMb(), 700);
    EXPECT_EQ(cl.worker(0).usedMb(), 750);
    EXPECT_EQ(cl.worker(1).containerMb(), 0);

    cl.container(a).state = ContainerState::Live;
    cl.compressContainer(a, 3.0);
    EXPECT_EQ(cl.worker(0).containerMb(), 300);
    cl.decompressContainer(a);
    EXPECT_EQ(cl.worker(0).containerMb(), 700);
    cl.destroyContainer(a);
    EXPECT_EQ(cl.worker(0).containerMb(), 100);
    EXPECT_EQ(cl.worker(0).usedMb(), 150);
}

TEST(Cluster, LoadRebuildsContainerMemoryAndRejectsAnOverdrawnWorker)
{
    Cluster cl(smallConfig());
    const ContainerId a = cl.createContainer(
        0, 0, 600, 1, ProvisionReason::Demand, 0);
    cl.createContainer(1, 0, 100, 1, ProvisionReason::Demand, 0);
    cl.createContainer(2, 1, 300, 1, ProvisionReason::Demand, 0);
    cl.container(a).state = ContainerState::Live;
    cl.compressContainer(a, 3.0);
    cl.worker(1).reserve(50);
    sim::StateWriter writer;
    cl.saveState(writer);
    const std::vector<std::byte> good = writer.release();

    const auto load = [](const std::vector<std::byte> &bytes) {
        Cluster restored(smallConfig());
        sim::StateReader reader(bytes);
        restored.loadState(reader);
        return restored;
    };
    const Cluster restored = load(good);
    for (WorkerId w = 0; w < cl.workerCount(); ++w) {
        EXPECT_EQ(restored.worker(w).containerMb(),
                  cl.worker(w).containerMb()) << "worker " << w;
        EXPECT_EQ(restored.worker(w).usedMb(), cl.worker(w).usedMb());
    }
    EXPECT_EQ(restored.worker(0).containerMb(), 300);
    EXPECT_EQ(restored.worker(1).containerMb(), 300);

    // Payload layout: worker count, then per worker its capacity (i64),
    // used MB (i64) and container count (u32).  Worker 0's containers
    // hold 300 MB; claim it uses 299.
    std::vector<std::byte> overdrawn = good;
    const std::int64_t used = 299;
    std::memcpy(overdrawn.data() + 16, &used, sizeof used);
    EXPECT_THROW(load(overdrawn), std::runtime_error);
}

TEST(Container, StateHelpers)
{
    Container c;
    c.state = ContainerState::Live;
    c.threads = 2;
    c.active = 0;
    EXPECT_TRUE(c.idle());
    EXPECT_TRUE(c.hasFreeSlot());
    c.active = 1;
    EXPECT_TRUE(c.busy());
    EXPECT_TRUE(c.hasFreeSlot());
    c.active = 2;
    EXPECT_FALSE(c.hasFreeSlot());
    EXPECT_STREQ(containerStateName(ContainerState::Live), "live");
    EXPECT_STREQ(containerStateName(ContainerState::Compressed),
                 "compressed");
}

} // namespace
} // namespace cidre::cluster

#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/serialize.h"

namespace cidre::cluster {

Cluster::Cluster(const ClusterConfig &config)
{
    if (config.workers == 0)
        throw std::invalid_argument("Cluster: need at least one worker");
    const bool explicit_caps = !config.worker_memory_mb.empty();
    if (explicit_caps &&
        config.worker_memory_mb.size() != config.workers) {
        throw std::invalid_argument(
            "Cluster: worker_memory_mb size mismatch");
    }
    if (!explicit_caps && config.total_memory_mb < config.workers)
        throw std::invalid_argument("Cluster: memory too small");
    if (!config.speed_factors.empty() &&
        config.speed_factors.size() != config.workers) {
        throw std::invalid_argument("Cluster: speed_factors size mismatch");
    }

    const std::int64_t per_worker =
        explicit_caps ? 0 : config.total_memory_mb / config.workers;
    workers_.reserve(config.workers);
    for (std::uint32_t i = 0; i < config.workers; ++i) {
        // Even split: the first worker absorbs the division remainder
        // so the aggregate matches the requested budget exactly.
        const std::int64_t extra =
            i == 0 && !explicit_caps
                ? config.total_memory_mb % config.workers : 0;
        const std::int64_t capacity = explicit_caps
            ? config.worker_memory_mb[i] : per_worker + extra;
        if (capacity < 1)
            throw std::invalid_argument("Cluster: memory too small");
        const double speed = config.speed_factors.empty()
            ? 1.0 : config.speed_factors[i];
        workers_.emplace_back(i, capacity, speed);
        total_capacity_mb_ += capacity;
    }
}

std::int64_t
Cluster::totalUsedMb() const
{
    std::int64_t used = 0;
    for (const auto &worker : workers_)
        used += worker.usedMb();
    return used;
}

WorkerId
Cluster::mostFreeWorker() const
{
    WorkerId best = 0;
    std::int64_t best_free = workers_[0].freeMb();
    for (WorkerId i = 1; i < workers_.size(); ++i) {
        if (workers_[i].freeMb() > best_free) {
            best = i;
            best_free = workers_[i].freeMb();
        }
    }
    return best;
}

WorkerId
Cluster::cheapestWorkerFitting(std::int64_t mb) const
{
    WorkerId best = kInvalidContainer;
    double best_speed = 0.0;
    for (WorkerId i = 0; i < workers_.size(); ++i) {
        if (!workers_[i].fits(mb))
            continue;
        if (best == kInvalidContainer ||
            workers_[i].speedFactor() < best_speed) {
            best = i;
            best_speed = workers_[i].speedFactor();
        }
    }
    return best == kInvalidContainer ? mostFreeWorker() : best;
}

ContainerId
Cluster::createContainer(trace::FunctionId function, WorkerId worker_id,
                         std::int64_t memory_mb, std::uint32_t threads,
                         ProvisionReason reason, sim::SimTime now)
{
    if (threads == 0)
        throw std::invalid_argument("Cluster: threads must be >= 1");
    Worker &host = worker(worker_id);
    host.reserve(memory_mb); // throws if over capacity

    ContainerId id;
    if (!free_slots_.empty()) {
        id = free_slots_.back();
        free_slots_.pop_back();
        containers_[id] = Container{}; // scrub the evicted record
    } else {
        id = static_cast<ContainerId>(containers_.size());
        containers_.emplace_back();
    }
    Container &c = containers_[id];
    c.id = id;
    c.seq = next_seq_++;
    c.function = function;
    c.worker = worker_id;
    c.state = ContainerState::Provisioning;
    c.reason = reason;
    c.memory_mb = memory_mb;
    c.full_memory_mb = memory_mb;
    c.threads = threads;
    c.created_at = now;
    host.noteContainerAdded(memory_mb);
    ++cached_count_;
    return id;
}

void
Cluster::destroyContainer(ContainerId id)
{
    Container &c = container(id);
    if (c.evicted())
        throw std::logic_error("Cluster: double eviction");
    if (c.active > 0)
        throw std::logic_error("Cluster: evicting a busy container");
    worker(c.worker).release(c.memory_mb);
    worker(c.worker).noteContainerRemoved(c.memory_mb);
    c.memory_mb = 0;
    c.state = ContainerState::Evicted;
    --cached_count_;
    // The record stays readable (eviction hooks, metrics) until the
    // next createContainer() recycles the slot.
    free_slots_.push_back(id);
}

std::int64_t
Cluster::compressContainer(ContainerId id, double ratio)
{
    if (ratio <= 1.0)
        throw std::invalid_argument("Cluster: compression ratio must be > 1");
    Container &c = container(id);
    if (!c.idle())
        throw std::logic_error("Cluster: compressing a non-idle container");
    const auto compressed_mb = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::llround(static_cast<double>(c.full_memory_mb) / ratio)));
    const std::int64_t freed = c.memory_mb - compressed_mb;
    if (freed < 0)
        throw std::logic_error("Cluster: compression grew the container");
    worker(c.worker).release(freed);
    worker(c.worker).noteContainerResized(-freed);
    c.memory_mb = compressed_mb;
    c.state = ContainerState::Compressed;
    return freed;
}

void
Cluster::decompressContainer(ContainerId id)
{
    Container &c = container(id);
    if (!c.compressed())
        throw std::logic_error("Cluster: decompressing a non-compressed one");
    const std::int64_t grow = c.full_memory_mb - c.memory_mb;
    worker(c.worker).reserve(grow); // throws if it no longer fits
    worker(c.worker).noteContainerResized(grow);
    c.memory_mb = c.full_memory_mb;
    c.state = ContainerState::Live;
}

namespace {

void
saveContainer(sim::StateWriter &writer, const Container &c)
{
    writer.put(c.id);
    writer.put(c.seq);
    writer.put(c.function);
    writer.put(c.worker);
    writer.put(c.state);
    writer.put(c.reason);
    writer.put(c.memory_mb);
    writer.put(c.full_memory_mb);
    writer.put(c.threads);
    writer.put(c.active);
    writer.put(c.created_at);
    writer.put(c.provision_ends_at);
    writer.put(c.idle_since);
    writer.put(c.last_used_at);
    writer.put(c.busy_until);
    writer.put(c.use_count);
    writer.put(c.restoring);
    writer.put(c.clock);
    writer.put(c.priority);
    writer.put(c.avail_slot);
    writer.put(c.cached_slot);
    writer.put(c.idle_slot);
    c.bound_queue.saveState(writer);
}

void
loadContainer(sim::StateReader &reader, Container &c)
{
    c.id = reader.get<ContainerId>();
    c.seq = reader.get<std::uint64_t>();
    c.function = reader.get<trace::FunctionId>();
    c.worker = reader.get<WorkerId>();
    c.state = reader.get<ContainerState>();
    c.reason = reader.get<ProvisionReason>();
    c.memory_mb = reader.get<std::int64_t>();
    c.full_memory_mb = reader.get<std::int64_t>();
    c.threads = reader.get<std::uint32_t>();
    c.active = reader.get<std::uint32_t>();
    c.created_at = reader.get<sim::SimTime>();
    c.provision_ends_at = reader.get<sim::SimTime>();
    c.idle_since = reader.get<sim::SimTime>();
    c.last_used_at = reader.get<sim::SimTime>();
    c.busy_until = reader.get<sim::SimTime>();
    c.use_count = reader.get<std::uint64_t>();
    c.restoring = reader.get<bool>();
    c.clock = reader.get<double>();
    c.priority = reader.get<double>();
    c.avail_slot = reader.get<std::int32_t>();
    c.cached_slot = reader.get<std::int32_t>();
    c.idle_slot = reader.get<std::int32_t>();
    c.bound_queue.loadState(reader);
}

} // namespace

void
Cluster::saveState(sim::StateWriter &writer) const
{
    writer.put<std::uint64_t>(workers_.size());
    for (const Worker &worker : workers_)
        worker.saveState(writer);
    writer.put<std::uint64_t>(containers_.size());
    for (const Container &container : containers_)
        saveContainer(writer, container);
    writer.putVector(free_slots_);
    writer.put(next_seq_);
    writer.put<std::uint64_t>(cached_count_);
}

void
Cluster::loadState(sim::StateReader &reader)
{
    const auto worker_count = reader.get<std::uint64_t>();
    if (worker_count != workers_.size())
        throw std::runtime_error("Cluster: checkpoint worker count mismatch");
    for (Worker &worker : workers_)
        worker.loadState(reader);
    const auto container_count = reader.get<std::uint64_t>();
    containers_.clear();
    // The MB each worker's containers hold is derived, not saved: sum
    // it over the restored slab.
    std::vector<std::int64_t> container_mb(workers_.size(), 0);
    for (std::uint64_t i = 0; i < container_count; ++i) {
        const Container &c = containers_.emplace_back();
        loadContainer(reader, containers_.back());
        if (c.id != i)
            throw std::runtime_error("Cluster: corrupt container slab");
        if (c.evicted())
            continue;
        if (c.worker >= workers_.size() || c.memory_mb < 0 ||
            c.memory_mb > workers_[c.worker].capacityMb()) {
            throw std::runtime_error("Cluster: corrupt container slab");
        }
        container_mb[c.worker] += c.memory_mb;
    }
    for (std::size_t w = 0; w < workers_.size(); ++w)
        workers_[w].restoreContainerMb(container_mb[w]);
    free_slots_ = reader.getVector<ContainerId>();
    for (const ContainerId slot : free_slots_) {
        if (slot >= containers_.size() || !containers_[slot].evicted())
            throw std::runtime_error("Cluster: corrupt free list");
    }
    next_seq_ = reader.get<std::uint64_t>();
    cached_count_ = static_cast<std::size_t>(reader.get<std::uint64_t>());
}

} // namespace cidre::cluster

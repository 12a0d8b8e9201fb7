#include "policies/keepalive/ranked.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/engine.h"
#include "sim/serialize.h"

namespace cidre::policies {

namespace {

/** Min-heap order on (score, seq): the order a sort would give. */
constexpr auto kHeadAfter = [](const auto &a, const auto &b) {
    if (a.score != b.score)
        return a.score > b.score;
    return a.seq > b.seq;
};

} // namespace

double
RankedKeepAlive::bonus(core::Engine & /*engine*/,
                       trace::FunctionId /*function*/)
{
    return 0.0;
}

double
RankedKeepAlive::lastUse(const cluster::Container &container)
{
    return static_cast<double>(container.use_count == 0
                                   ? container.created_at
                                   : container.last_used_at);
}

RankedKeepAlive::WorkerState &
RankedKeepAlive::stateFor(core::Engine &engine, cluster::WorkerId worker)
{
    if (workers_.size() <= worker)
        workers_.resize(engine.clusterRef().workerCount());
    WorkerState &ws = workers_[worker];
    const std::size_t buckets =
        per_function_ ? engine.workload().functionCount() : 1;
    if (ws.buckets.size() != buckets) {
        // Only a restored ranking can be wider than the workload.
        if (ws.buckets.size() > buckets)
            throw std::runtime_error(
                "RankedKeepAlive: checkpoint ranking has more buckets "
                "than the workload has functions");
        ws.buckets.resize(buckets);
        ws.active_slot.resize(buckets, -1);
        ws.scan_bonus.resize(buckets, 0.0);
        ws.scan_seq.resize(buckets, 0);
    }
    return ws;
}

void
RankedKeepAlive::onIdle(core::Engine &engine, cluster::Container &container)
{
    container.clock = key(engine, container);
    WorkerState &ws = stateFor(engine, container.worker);
    if (!ws.valid)
        return;
    // The engine just appended the container to the idle list (one
    // epoch bump); any other difference is a change the hooks missed.
    if (ws.epoch + 1 != engine.idleEpoch(container.worker)) {
        ws.valid = false;
        return;
    }
    insertIdle(ws, container);
    ++ws.epoch;
}

void
RankedKeepAlive::onUse(core::Engine &engine, cluster::Container &container,
                       core::StartType /*type*/)
{
    leave(engine, container);
}

void
RankedKeepAlive::onEvicted(core::Engine &engine,
                           const cluster::Container &container)
{
    leave(engine, engine.clusterRef().container(container.id));
}

void
RankedKeepAlive::leave(core::Engine &engine, cluster::Container &container)
{
    WorkerState &ws = stateFor(engine, container.worker);
    if (!ws.valid)
        return;
    const std::uint64_t epoch = engine.idleEpoch(container.worker);
    if (ws.epoch == epoch)
        return; // was not idle (a dispatch into a busy container)
    if (ws.epoch + 1 == epoch && removeIdle(ws, container))
        ws.epoch = epoch;
    else
        ws.valid = false; // unobserved change: rebuild at the next scan
}

void
RankedKeepAlive::insertIdle(WorkerState &ws,
                            const cluster::Container &container)
{
    const std::uint32_t b = bucketOf(container);
    std::vector<IdleEntry> &bucket = ws.buckets[b];
    if (bucket.empty()) {
        ws.active_slot[b] = static_cast<std::int32_t>(ws.active.size());
        ws.active.push_back(b);
    }
    // The mark is the bucket's scan seq at insertion: a larger seq at
    // removal means a scan saw the container idle.
    const IdleEntry entry{.key = container.clock, .seq = container.seq,
                          .id = container.id, .scan_mark = ws.scan_seq[b]};
    bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), entry),
                  entry);
}

bool
RankedKeepAlive::removeIdle(WorkerState &ws, cluster::Container &container)
{
    const std::uint32_t b = bucketOf(container);
    if (b >= ws.buckets.size())
        return false;
    std::vector<IdleEntry> &bucket = ws.buckets[b];
    const IdleEntry probe{.key = container.clock, .seq = container.seq,
                          .id = container.id, .scan_mark = 0};
    const auto it = std::lower_bound(bucket.begin(), bucket.end(), probe);
    if (it == bucket.end() || it->seq != container.seq ||
        it->key != container.clock) {
        return false;
    }
    if (ws.scan_seq[b] > it->scan_mark)
        container.priority = it->key + ws.scan_bonus[b];
    bucket.erase(it);
    if (bucket.empty()) {
        const auto slot = static_cast<std::size_t>(ws.active_slot[b]);
        assert(ws.active[slot] == b);
        ws.active[slot] = ws.active.back();
        ws.active_slot[ws.active[slot]] = static_cast<std::int32_t>(slot);
        ws.active.pop_back();
        ws.active_slot[b] = -1;
    }
    return true;
}

void
RankedKeepAlive::rebuild(core::Engine &engine, cluster::WorkerId worker,
                         WorkerState &ws)
{
    for (const std::uint32_t b : ws.active) {
        ws.buckets[b].clear();
        ws.active_slot[b] = -1;
    }
    ws.active.clear();
    cluster::Cluster &cl = engine.clusterRef();
    for (const cluster::ContainerId cid : engine.idleContainersOn(worker)) {
        cluster::Container &c = cl.container(cid);
        c.clock = key(engine, c);
        const std::uint32_t b = bucketOf(c);
        std::vector<IdleEntry> &bucket = ws.buckets[b];
        if (bucket.empty()) {
            ws.active_slot[b] = static_cast<std::int32_t>(ws.active.size());
            ws.active.push_back(b);
        }
        // Mark 0 (never a live scan seq): the scan that follows records
        // every bonus, so each entry counts as scanned, as in a rescan.
        bucket.push_back(
            {.key = c.clock, .seq = c.seq, .id = cid, .scan_mark = 0});
    }
    for (const std::uint32_t b : ws.active)
        std::sort(ws.buckets[b].begin(), ws.buckets[b].end());
    ws.epoch = engine.idleEpoch(worker);
    ws.valid = true;
}

void
RankedKeepAlive::beginScan(core::Engine &engine, cluster::WorkerId worker)
{
    WorkerState &ws = stateFor(engine, worker);
    if (!ws.valid || ws.epoch != engine.idleEpoch(worker))
        rebuild(engine, worker, ws);

    const std::uint64_t seq = ++scan_counter_;
    scan_worker_ = worker;
    heads_.clear();
    for (const std::uint32_t b : ws.active) {
        const double extra = per_function_ ? bonus(engine, b) : 0.0;
        ws.scan_bonus[b] = extra;
        ws.scan_seq[b] = seq;
        const IdleEntry &head = ws.buckets[b].front();
        heads_.push_back({head.key + extra, head.seq, head.id, b, 1});
    }
    std::make_heap(heads_.begin(), heads_.end(), kHeadAfter);
}

cluster::Container *
RankedKeepAlive::popLowest(core::Engine &engine)
{
    if (heads_.empty())
        return nullptr;
    std::pop_heap(heads_.begin(), heads_.end(), kHeadAfter);
    const Head h = heads_.back();
    heads_.pop_back();
    const WorkerState &ws = workers_[scan_worker_];
    const std::vector<IdleEntry> &bucket = ws.buckets[h.bucket];
    if (h.next < bucket.size()) {
        // The bucket's successor joins the merge.
        const IdleEntry &e = bucket[h.next];
        heads_.push_back({e.key + ws.scan_bonus[h.bucket], e.seq, e.id,
                          h.bucket, h.next + 1});
        std::push_heap(heads_.begin(), heads_.end(), kHeadAfter);
    }
    cluster::Container &c = engine.clusterRef().container(h.id);
    c.priority = h.score;
    return &c;
}

void
RankedKeepAlive::planReclaim(core::Engine &engine,
                             const core::ReclaimRequest &request,
                             core::ReclaimPlan &plan)
{
    beginScan(engine, request.worker);
    std::int64_t freed = 0;
    while (freed < request.need_mb) {
        const cluster::Container *c = popLowest(engine);
        if (c == nullptr)
            break;
        if (c->id == request.exclude)
            continue;
        plan.evict.push_back(c->id);
        freed += c->memory_mb;
    }
    if (freed < request.need_mb)
        plan.evict.clear(); // insufficient: the engine will defer
}

void
RankedKeepAlive::saveState(sim::StateWriter &writer) const
{
    writer.put(scan_counter_);
    writer.put<std::uint64_t>(workers_.size());
    for (const WorkerState &ws : workers_) {
        writer.put<std::uint64_t>(ws.buckets.size());
        for (const std::vector<IdleEntry> &bucket : ws.buckets)
            writer.putVector(bucket);
        writer.putVector(ws.scan_bonus);
        writer.putVector(ws.scan_seq);
        writer.put(ws.epoch);
        writer.put(ws.valid);
    }
}

void
RankedKeepAlive::loadState(sim::StateReader &reader)
{
    const auto check = [](bool ok) {
        if (!ok)
            throw std::runtime_error(
                "RankedKeepAlive: corrupt idle ranking in checkpoint");
    };
    scan_counter_ = reader.get<std::uint64_t>();
    // Each record below starts with an 8-byte count, so a count beyond
    // the bytes left is corrupt before anything is allocated.
    const auto worker_count = reader.get<std::uint64_t>();
    check(worker_count <= reader.remaining() / 8);
    workers_.assign(static_cast<std::size_t>(worker_count), {});
    for (WorkerState &ws : workers_) {
        const auto buckets = reader.get<std::uint64_t>();
        check(buckets <= reader.remaining() / 8 &&
              (per_function_ || buckets <= 1));
        ws.buckets.resize(static_cast<std::size_t>(buckets));
        ws.active_slot.assign(static_cast<std::size_t>(buckets), -1);
        for (std::uint32_t b = 0; b < buckets; ++b) {
            ws.buckets[b] = reader.getVector<IdleEntry>();
            check(std::is_sorted(ws.buckets[b].begin(),
                                 ws.buckets[b].end()));
            // The active list is derived: its order is invisible, as
            // pops follow the total (score, seq) order.
            if (!ws.buckets[b].empty()) {
                ws.active_slot[b] =
                    static_cast<std::int32_t>(ws.active.size());
                ws.active.push_back(b);
            }
        }
        ws.scan_bonus = reader.getVector<double>();
        ws.scan_seq = reader.getVector<std::uint64_t>();
        check(ws.scan_bonus.size() == buckets &&
              ws.scan_seq.size() == buckets);
        ws.epoch = reader.get<std::uint64_t>();
        ws.valid = reader.get<bool>();
    }
    heads_.clear();
}

} // namespace cidre::policies

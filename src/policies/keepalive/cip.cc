#include "policies/keepalive/cip.h"

#include <algorithm>
#include <cassert>

#include "core/engine.h"
#include "sim/serialize.h"

namespace cidre::policies {

void
CipKeepAlive::onAdmit(core::Engine &engine, cluster::Container &container,
                      double eviction_watermark)
{
    // §3.3: when the cache is not full new containers start at clock 0;
    // when admission required evictions, the container inherits the
    // maximum evicted priority, keeping clocks monotone.
    container.clock = eviction_watermark;
    score(engine, container);
}

void
CipKeepAlive::onUse(core::Engine &engine, cluster::Container &container,
                    core::StartType /*type*/)
{
    // On any (delayed) warm start the clock is refreshed to the
    // container's priority *before* the update (§3.3), then the priority
    // is recomputed with Eq. 3.  "Priority before the update" means the
    // value the last reclaim scan left behind: reconstruct it from the
    // recorded per-(worker, function) scan bonus when the container was
    // scanned while idle, else container.priority already holds it.
    double stale = container.priority;
    WorkerState &ws = stateFor(engine, container.worker);
    if (ws.valid) {
        const std::uint64_t epoch = engine.idleEpoch(container.worker);
        if (ws.epoch != epoch) {
            // The single expected bump is this container leaving the
            // idle list; mirror it (and recover the scan-time priority).
            if (ws.epoch + 1 == epoch && removeIdle(ws, container, &stale))
                ws.epoch = epoch;
            else
                ws.valid = false; // unobserved change: rebuild next scan
        }
        // Matching epochs: dispatch into a non-idle container (another
        // free thread) — no membership change, priority already fresh.
    }
    container.clock = stale;
    score(engine, container);
}

void
CipKeepAlive::onIdle(core::Engine &engine, cluster::Container &container)
{
    WorkerState &ws = stateFor(engine, container.worker);
    if (!ws.valid)
        return;
    if (ws.epoch + 1 != engine.idleEpoch(container.worker)) {
        ws.valid = false;
        return;
    }
    insertIdle(ws, container);
    ++ws.epoch;
}

void
CipKeepAlive::onEvicted(core::Engine &engine,
                        const cluster::Container &container)
{
    WorkerState &ws = stateFor(engine, container.worker);
    if (!ws.valid)
        return;
    const std::uint64_t epoch = engine.idleEpoch(container.worker);
    if (ws.epoch == epoch)
        return; // was not idle: never entered a bucket
    if (ws.epoch + 1 == epoch && removeIdle(ws, container, nullptr))
        ws.epoch = epoch;
    else
        ws.valid = false;
}

double
CipKeepAlive::score(core::Engine &engine, cluster::Container &container)
{
    container.priority =
        container.clock + bonusOf(engine, container.function);
    return container.priority;
}

double
CipKeepAlive::bonusOf(core::Engine &engine, trace::FunctionId function)
{
    if (bonus_cache_.size() <= function)
        bonus_cache_.resize(engine.workload().functionCount());
    const core::FunctionState &fs = engine.functionState(function);
    BonusCache &memo = bonus_cache_[function];
    const sim::SimTime now = engine.now();
    if (memo.when == now && memo.epoch == fs.priorityEpoch())
        return memo.bonus;

    const auto &profile = engine.workload().functions()[function];
    const double freq = fs.freqPerMinute(now);
    const auto cost = static_cast<double>(profile.cold_start_us);
    const auto size = static_cast<double>(
        std::max<std::int64_t>(profile.memory_mb, 1));
    const auto k =
        static_cast<double>(std::max<std::uint32_t>(fs.cachedCount(), 1));
    memo.when = now;
    memo.epoch = fs.priorityEpoch();
    memo.bonus = bonus_weight_ * (freq * cost / (size * k));
    return memo.bonus;
}

CipKeepAlive::WorkerState &
CipKeepAlive::stateFor(core::Engine &engine, cluster::WorkerId worker)
{
    if (workers_.size() <= worker)
        workers_.resize(engine.clusterRef().workerCount());
    WorkerState &ws = workers_[worker];
    const std::size_t fns = engine.workload().functionCount();
    if (ws.buckets.size() < fns) {
        ws.buckets.resize(fns);
        ws.active_slot.resize(fns, -1);
        ws.scan_bonus.resize(fns, 0.0);
        ws.scan_seq.resize(fns, 0);
    }
    return ws;
}

void
CipKeepAlive::insertIdle(WorkerState &ws, const cluster::Container &container)
{
    const trace::FunctionId f = container.function;
    std::vector<IdleEntry> &bucket = ws.buckets[f];
    if (bucket.empty()) {
        ws.active_slot[f] = static_cast<std::int32_t>(ws.active.size());
        ws.active.push_back(f);
    }
    // The entry remembers the scan seq current at insertion: a later
    // larger seq on this (worker, function) cell means a reclaim scan
    // saw the container while idle and re-wrote its priority.
    const IdleEntry entry{.clock = container.clock, .seq = container.seq,
                          .id = container.id, .scan_mark = ws.scan_seq[f]};
    bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), entry),
                  entry);
}

bool
CipKeepAlive::removeIdle(WorkerState &ws, const cluster::Container &container,
                         double *stale_priority)
{
    const trace::FunctionId f = container.function;
    if (f >= ws.buckets.size())
        return false;
    std::vector<IdleEntry> &bucket = ws.buckets[f];
    const IdleEntry key{.clock = container.clock, .seq = container.seq,
                        .id = container.id, .scan_mark = 0};
    const auto it = std::lower_bound(bucket.begin(), bucket.end(), key);
    if (it == bucket.end() || it->seq != container.seq ||
        it->clock != container.clock) {
        return false;
    }
    if (stale_priority != nullptr) {
        *stale_priority = ws.scan_seq[f] > it->scan_mark
            ? container.clock + ws.scan_bonus[f]
            : container.priority;
    }
    bucket.erase(it);
    if (bucket.empty()) {
        const std::int32_t slot = ws.active_slot[f];
        assert(slot >= 0 && ws.active[static_cast<std::size_t>(slot)] == f);
        ws.active[static_cast<std::size_t>(slot)] = ws.active.back();
        ws.active_slot[ws.active[static_cast<std::size_t>(slot)]] = slot;
        ws.active.pop_back();
        ws.active_slot[f] = -1;
    }
    return true;
}

void
CipKeepAlive::rebuild(core::Engine &engine, cluster::WorkerId worker,
                      WorkerState &ws)
{
    for (const trace::FunctionId f : ws.active) {
        ws.buckets[f].clear();
        ws.active_slot[f] = -1;
    }
    ws.active.clear();
    for (const cluster::ContainerId cid : engine.idleContainersOn(worker)) {
        const cluster::Container &c = engine.clusterRef().container(cid);
        std::vector<IdleEntry> &bucket = ws.buckets[c.function];
        if (bucket.empty()) {
            ws.active_slot[c.function] =
                static_cast<std::int32_t>(ws.active.size());
            ws.active.push_back(c.function);
        }
        // Mark 0 (never a live scan seq): the scan that follows in
        // planReclaim re-records every bonus, so reconstruction always
        // routes through it — exactly the brute-force full-scan effect.
        bucket.push_back(
            {.clock = c.clock, .seq = c.seq, .id = cid, .scan_mark = 0});
    }
    for (const trace::FunctionId f : ws.active)
        std::sort(ws.buckets[f].begin(), ws.buckets[f].end());
    ws.epoch = engine.idleEpoch(worker);
    ws.valid = true;
}

void
CipKeepAlive::planReclaim(core::Engine &engine,
                          const core::ReclaimRequest &request,
                          core::ReclaimPlan &plan)
{
    WorkerState &ws = stateFor(engine, request.worker);
    if (!ws.valid || ws.epoch != engine.idleEpoch(request.worker))
        rebuild(engine, request.worker, ws);

    // Record this scan.  One bonus per function with idle containers is
    // the exactness floor: Freq (Eq. 4) decays continuously, so every
    // scan instant has its own bonus — but bonusOf memoizes, making the
    // repeated scans of a multi-worker placement sweep O(1) per entry.
    const std::uint64_t seq = ++scan_counter_;
    ws.heads.clear();
    for (const trace::FunctionId f : ws.active) {
        const double bonus = bonusOf(engine, f);
        ws.scan_bonus[f] = bonus;
        ws.scan_seq[f] = seq;
        const IdleEntry &head = ws.buckets[f].front();
        ws.heads.push_back({head.clock + bonus, head.seq, head.id, f, 1});
    }

    // K-way merge of the bucket heads: pops come out in exactly the
    // ascending (score, seq) order a full rescore-and-sort would yield.
    const auto heap_after = [](const Head &a, const Head &b) {
        if (a.score != b.score)
            return a.score > b.score;
        return a.seq > b.seq;
    };
    std::make_heap(ws.heads.begin(), ws.heads.end(), heap_after);

    std::int64_t freed = 0;
    cluster::Cluster &cl = engine.clusterRef();
    while (freed < request.need_mb && !ws.heads.empty()) {
        std::pop_heap(ws.heads.begin(), ws.heads.end(), heap_after);
        const Head h = ws.heads.back();
        ws.heads.pop_back();
        if (h.id != request.exclude) {
            cluster::Container &victim = cl.container(h.id);
            // The brute-force scan wrote a fresh priority into every
            // victim; the engine's watermark inheritance reads it.
            victim.priority = h.score;
            plan.evict.push_back(h.id);
            freed += victim.memory_mb;
        }
        const std::vector<IdleEntry> &bucket = ws.buckets[h.function];
        if (h.next < bucket.size()) {
            const IdleEntry &e = bucket[h.next];
            ws.heads.push_back({e.clock + ws.scan_bonus[h.function], e.seq,
                                e.id, h.function, h.next + 1});
            std::push_heap(ws.heads.begin(), ws.heads.end(), heap_after);
        }
    }
    if (freed < request.need_mb)
        plan.evict.clear(); // insufficient: the engine will defer
}

void
CipKeepAlive::saveState(sim::StateWriter &writer) const
{
    writer.put(scan_counter_);
    writer.put<std::uint64_t>(workers_.size());
    for (const WorkerState &ws : workers_) {
        writer.put<std::uint64_t>(ws.buckets.size());
        for (const std::vector<IdleEntry> &bucket : ws.buckets)
            writer.putVector(bucket);
        writer.putVector(ws.active);
        writer.putVector(ws.active_slot);
        writer.putVector(ws.scan_bonus);
        writer.putVector(ws.scan_seq);
        writer.put(ws.epoch);
        writer.put(ws.valid);
    }
}

void
CipKeepAlive::loadState(sim::StateReader &reader)
{
    scan_counter_ = reader.get<std::uint64_t>();
    const auto worker_count = reader.get<std::uint64_t>();
    workers_.clear();
    workers_.resize(static_cast<std::size_t>(worker_count));
    for (WorkerState &ws : workers_) {
        const auto bucket_count = reader.get<std::uint64_t>();
        ws.buckets.resize(static_cast<std::size_t>(bucket_count));
        for (std::vector<IdleEntry> &bucket : ws.buckets)
            bucket = reader.getVector<IdleEntry>();
        ws.active = reader.getVector<trace::FunctionId>();
        ws.active_slot = reader.getVector<std::int32_t>();
        ws.scan_bonus = reader.getVector<double>();
        ws.scan_seq = reader.getVector<std::uint64_t>();
        ws.epoch = reader.get<std::uint64_t>();
        ws.valid = reader.get<bool>();
        ws.heads.clear();
    }
    bonus_cache_.clear(); // pure memo: recomputes to the same values
    invalidateRankingCaches();
}

} // namespace cidre::policies

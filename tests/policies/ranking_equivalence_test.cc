/**
 * @file
 * Equivalence of RankedKeepAlive's bucket merge with the rescan it
 * replaced, for every ranked keep-alive family.
 *
 * The reference is the deleted rescan path: on every reclaim it scores
 * every idle container of the worker, writes each score into
 * container.priority, and sorts by (score, seq).  Each family's score
 * formula and priority bookkeeping is copied verbatim from the policy
 * before the merge, except Flame's hot-class offset, which is 2^50 (the
 * policy's current, exact offset).  Expiry is not the ranking, so the
 * references delegate collectExpired to a production instance that
 * sees no other hook, and keep the production agents.
 *
 * Each case runs a pressured workload three ways: the reference, the
 * production policy, and the production policy checkpointed mid-run and
 * restored into a fresh engine.  All three must evict the same
 * containers in the same order, give every request the same outcome and
 * report bit-equal memory and overhead averages.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "policies/baselines/codecrunch.h"
#include "policies/baselines/ensure.h"
#include "policies/baselines/flame.h"
#include "policies/baselines/hybrid.h"
#include "policies/baselines/icebreaker.h"
#include "policies/baselines/rainbowcake.h"
#include "policies/keepalive/belady.h"
#include "policies/keepalive/cip.h"
#include "policies/keepalive/gdsf.h"
#include "policies/keepalive/lru.h"
#include "policies/keepalive/ttl.h"
#include "policies/scaling/css.h"
#include "policies/scaling/oracle.h"
#include "policies/scaling/vanilla.h"
#include "sim/serialize.h"
#include "tests/core/test_helpers.h"
#include "trace/generators.h"

namespace cidre::policies {
namespace {

using cluster::Container;
using core::Engine;
using sim::sec;

/** Forwards every hook to @p inner and logs each evicted container. */
class Logged : public core::KeepAlivePolicy
{
  public:
    Logged(std::unique_ptr<core::KeepAlivePolicy> inner,
           std::vector<std::uint64_t> &log)
        : inner_(std::move(inner)), log_(log)
    {
    }

    const char *name() const override { return inner_->name(); }
    void onAdmit(Engine &engine, Container &c, double watermark) override
    {
        inner_->onAdmit(engine, c, watermark);
    }
    void onUse(Engine &engine, Container &c, core::StartType type) override
    {
        inner_->onUse(engine, c, type);
    }
    void onIdle(Engine &engine, Container &c) override
    {
        inner_->onIdle(engine, c);
    }
    void planReclaim(Engine &engine, const core::ReclaimRequest &request,
                     core::ReclaimPlan &plan) override
    {
        inner_->planReclaim(engine, request, plan);
    }
    void onEvicted(Engine &engine, const Container &c) override
    {
        log_.push_back(c.seq);
        inner_->onEvicted(engine, c);
    }
    void collectExpired(Engine &engine, sim::SimTime now,
                        std::vector<cluster::ContainerId> &out) override
    {
        inner_->collectExpired(engine, now, out);
    }
    void saveState(sim::StateWriter &writer) const override
    {
        inner_->saveState(writer);
    }
    void loadState(sim::StateReader &reader) override
    {
        inner_->loadState(reader);
    }

  private:
    std::unique_ptr<core::KeepAlivePolicy> inner_;
    std::vector<std::uint64_t> &log_;
};

/** The rescan: score every idle container, write it, sort. */
class Rescan : public core::KeepAlivePolicy
{
  public:
    using Formula = std::function<double(Engine &, Container &)>;

    Rescan(Formula formula,
           std::unique_ptr<core::KeepAlivePolicy> expiry = nullptr)
        : formula_(std::move(formula)), expiry_(std::move(expiry))
    {
    }

    const char *name() const override { return "rescan"; }

    void onIdle(Engine &, Container &c) override
    {
        if (c.seq < scanned_.size())
            scanned_[c.seq] = 0;
    }

    void planReclaim(Engine &engine, const core::ReclaimRequest &request,
                     core::ReclaimPlan &plan) override
    {
        const std::vector<Entry> &ranked = rank(engine, request.worker);
        std::int64_t freed = 0;
        for (const Entry &entry : ranked) {
            if (freed >= request.need_mb)
                break;
            if (entry.id == request.exclude)
                continue;
            plan.evict.push_back(entry.id);
            freed += engine.clusterRef().container(entry.id).memory_mb;
        }
        if (freed < request.need_mb)
            plan.evict.clear();
        notePlan(engine, plan);
    }

    void onEvicted(Engine &, const Container &c) override
    {
        if (std::find(plan_seqs_.begin(), plan_seqs_.end(), c.seq) ==
                plan_seqs_.end() &&
            scannedWhileIdle(c)) {
            ++reaped_after_scan_;
        }
    }

    void collectExpired(Engine &engine, sim::SimTime now,
                        std::vector<cluster::ContainerId> &out) override
    {
        if (expiry_)
            expiry_->collectExpired(engine, now, out);
    }

    /** Containers removed outside a plan after a scan saw them idle. */
    std::uint64_t reapedAfterScan() const { return reaped_after_scan_; }

  protected:
    struct Entry
    {
        double score;
        std::uint64_t seq;
        cluster::ContainerId id;
    };

    /** Every idle container of @p worker, rescored, lowest first. */
    const std::vector<Entry> &rank(Engine &engine, cluster::WorkerId worker)
    {
        ranked_.clear();
        for (const cluster::ContainerId cid :
             engine.idleContainersOn(worker)) {
            Container &c = engine.clusterRef().container(cid);
            c.priority = formula_(engine, c);
            scanned_.resize(std::max<std::size_t>(scanned_.size(),
                                                  c.seq + 1));
            scanned_[c.seq] = 1;
            ranked_.push_back({c.priority, c.seq, cid});
        }
        std::sort(ranked_.begin(), ranked_.end(),
                  [](const Entry &a, const Entry &b) {
                      if (a.score != b.score)
                          return a.score < b.score;
                      return a.seq < b.seq;
                  });
        return ranked_;
    }

    void notePlan(Engine &engine, const core::ReclaimPlan &plan)
    {
        plan_seqs_.clear();
        for (const cluster::ContainerId cid : plan.evict)
            plan_seqs_.push_back(engine.clusterRef().container(cid).seq);
    }

    bool scannedWhileIdle(const Container &c) const
    {
        return c.seq < scanned_.size() && scanned_[c.seq] != 0;
    }

    Formula formula_;

  private:
    std::unique_ptr<core::KeepAlivePolicy> expiry_;
    std::vector<Entry> ranked_;
    std::vector<std::uint64_t> plan_seqs_;
    /** By Container::seq: rescored since it last went idle. */
    std::vector<std::uint8_t> scanned_;
    std::uint64_t reaped_after_scan_ = 0;
};

double
recency(Engine &, Container &c)
{
    return static_cast<double>(c.use_count == 0 ? c.created_at
                                                : c.last_used_at);
}

/** GDSF before the merge (Eq. 1, or Eq. 2 when concurrency-aware). */
class RescanGdsf : public Rescan
{
  public:
    explicit RescanGdsf(bool concurrency_aware)
        : Rescan([this](Engine &e, Container &c) { return score(e, c); }),
          concurrency_aware_(concurrency_aware)
    {
    }

    void onAdmit(Engine &engine, Container &c, double) override
    {
        c.clock = watermark_;
        ++freqOf(engine, c.function);
        c.priority = score(engine, c);
    }
    void onUse(Engine &engine, Container &c, core::StartType) override
    {
        c.clock = watermark_;
        ++freqOf(engine, c.function);
        c.priority = score(engine, c);
    }
    void onEvicted(Engine &engine, const Container &c) override
    {
        Rescan::onEvicted(engine, c);
        watermark_ = std::max(watermark_, c.priority);
        const auto &fs = engine.functionState(c.function);
        if (fs.cachedCount() == 0 && fs.provisioningCount() == 0)
            freqOf(engine, c.function) = 0;
    }

  private:
    std::uint64_t &freqOf(Engine &engine, trace::FunctionId id)
    {
        if (freq_.size() < engine.workload().functionCount())
            freq_.resize(engine.workload().functionCount(), 0);
        return freq_[id];
    }

    double score(Engine &engine, Container &c)
    {
        const auto &profile = engine.workload().functions()[c.function];
        const auto freq = static_cast<double>(freqOf(engine, c.function));
        const auto cost = static_cast<double>(profile.cold_start_us);
        const auto size = static_cast<double>(
            std::max<std::int64_t>(profile.memory_mb, 1));
        double denom = size;
        if (concurrency_aware_) {
            const auto k = std::max<std::uint32_t>(
                engine.functionState(c.function).cachedCount(), 1);
            denom *= static_cast<double>(k);
        }
        return c.clock + freq * cost / denom;
    }

    bool concurrency_aware_;
    double watermark_ = 0.0;
    std::vector<std::uint64_t> freq_;
};

/** CodeCrunch before the merge: compress pass, then evict-only. */
class RescanCodeCrunch : public RescanGdsf
{
  public:
    RescanCodeCrunch() : RescanGdsf(false) {}

    void planReclaim(Engine &engine, const core::ReclaimRequest &request,
                     core::ReclaimPlan &plan) override
    {
        const std::vector<Entry> &ranked = rank(engine, request.worker);
        const double ratio = engine.config().compression_ratio;
        std::int64_t freed = 0;
        for (const Entry &entry : ranked) {
            if (freed >= request.need_mb)
                break;
            if (entry.id == request.exclude)
                continue;
            const Container &c = engine.clusterRef().container(entry.id);
            if (c.compressed()) {
                plan.evict.push_back(entry.id);
                freed += c.memory_mb;
            } else {
                plan.compress.push_back(entry.id);
                freed += c.full_memory_mb - std::max<std::int64_t>(
                    1, static_cast<std::int64_t>(
                           static_cast<double>(c.full_memory_mb) / ratio));
            }
        }
        if (freed < request.need_mb) {
            plan.clear();
            freed = 0;
            for (const Entry &entry : ranked) {
                if (freed >= request.need_mb)
                    break;
                if (entry.id == request.exclude)
                    continue;
                plan.evict.push_back(entry.id);
                freed += engine.clusterRef().container(entry.id).memory_mb;
            }
            if (freed < request.need_mb)
                plan.evict.clear();
        }
        notePlan(engine, plan);
    }
};

/** CIP before the merge (Eq. 3): the clock refreshes from the priority
 *  the last rescan left. */
class RescanCip : public Rescan
{
  public:
    RescanCip()
        : Rescan([](Engine &engine, Container &c) {
              const auto &profile =
                  engine.workload().functions()[c.function];
              const auto &fs = engine.functionState(c.function);
              const double freq = fs.freqPerMinute(engine.now());
              const auto cost = static_cast<double>(profile.cold_start_us);
              const auto size = static_cast<double>(
                  std::max<std::int64_t>(profile.memory_mb, 1));
              const auto k = static_cast<double>(
                  std::max<std::uint32_t>(fs.cachedCount(), 1));
              return c.clock + freq * cost / (size * k);
          })
    {
    }

    void onAdmit(Engine &engine, Container &c, double watermark) override
    {
        c.clock = watermark;
        c.priority = formula_(engine, c);
    }
    void onUse(Engine &engine, Container &c, core::StartType) override
    {
        c.clock = c.priority;
        c.priority = formula_(engine, c);
    }
};

/** RainbowCake before the merge: shed layers, then rank. */
class RescanRainbowCake : public Rescan
{
  public:
    RescanRainbowCake(LayerCache &layers, const RainbowCakeConfig &config)
        : Rescan(recency,
                 std::make_unique<RainbowCakeKeepAlive>(layers, config)),
          layers_(layers)
    {
    }

    void planReclaim(Engine &engine, const core::ReclaimRequest &request,
                     core::ReclaimPlan &plan) override
    {
        const std::int64_t freed =
            layers_.shed(engine, request.worker, request.need_mb);
        if (freed >= request.need_mb)
            return;
        core::ReclaimRequest residual = request;
        residual.need_mb -= freed;
        Rescan::planReclaim(engine, residual, plan);
    }

  private:
    LayerCache &layers_;
};

core::OrchestrationPolicy
bundle(std::unique_ptr<core::ScalingPolicy> scaling,
       std::unique_ptr<core::KeepAlivePolicy> keep_alive,
       std::unique_ptr<core::ClusterAgent> agent = nullptr)
{
    return test::bundleOf(std::move(scaling), std::move(keep_alive),
                          std::move(agent));
}

// Short lifetimes, so expiry interleaves with pressure in a 3-minute run.
IceBreakerConfig
iceBreakerConfig()
{
    IceBreakerConfig config;
    config.stale_after = sec(5);
    return config;
}

FlameConfig
flameConfig()
{
    FlameConfig config;
    config.hot_ttl = sec(30);
    config.cold_ttl = sec(5);
    return config;
}

RainbowCakeConfig
rainbowCakeConfig()
{
    RainbowCakeConfig config;
    config.container_ttl = sec(20);
    return config;
}

HybridConfig
hybridConfig()
{
    HybridConfig config;
    config.fallback_ttl = sec(20);
    config.max_keep = sec(40);
    return config;
}

constexpr std::uint32_t kWorkers = 2;

/** One family: its production bundle and its rescan reference. */
struct Family
{
    std::string name;
    std::function<core::OrchestrationPolicy()> production;
    std::function<core::OrchestrationPolicy()> reference;
    /** Cluster memory: tight enough for constant churn by default. */
    std::int64_t memory_mb = 2 * 1024;
};

std::vector<Family>
families()
{
    const auto vanilla = [] { return std::make_unique<VanillaScaling>(); };
    return {
        {"cidre",
         [] {
             return bundle(std::make_unique<CssScaling>(),
                           std::make_unique<CipKeepAlive>());
         },
         [] {
             return bundle(std::make_unique<CssScaling>(),
                           std::make_unique<RescanCip>());
         }},
        {"faascache",
         [=] {
             return bundle(vanilla(), std::make_unique<GdsfKeepAlive>(false));
         },
         [=] { return bundle(vanilla(), std::make_unique<RescanGdsf>(false)); }},
        {"faascache_c",
         [=] {
             return bundle(vanilla(), std::make_unique<GdsfKeepAlive>(true));
         },
         [=] { return bundle(vanilla(), std::make_unique<RescanGdsf>(true)); }},
        {"codecrunch", [] { return makeCodeCrunch(); },
         [=] {
             return bundle(vanilla(), std::make_unique<RescanCodeCrunch>());
         }},
        // Room for scans that leave idle containers behind, which the
        // agent then reaps.
        {"icebreaker", [] { return makeIceBreaker(iceBreakerConfig()); },
         [=] {
             return bundle(
                 vanilla(), std::make_unique<RescanGdsf>(false),
                 std::make_unique<IceBreakerAgent>(iceBreakerConfig()));
         },
         32 * 1024},
        {"offline",
         [] {
             return bundle(std::make_unique<OracleScaling>(),
                           std::make_unique<BeladyKeepAlive>());
         },
         [] {
             return bundle(
                 std::make_unique<OracleScaling>(),
                 std::make_unique<Rescan>([](Engine &engine, Container &c) {
                     const sim::SimTime next =
                         engine.nextArrivalAfter(c.function, engine.now());
                     return next == sim::kTimeInfinity
                         ? -1e300
                         : -static_cast<double>(next);
                 }));
         }},
        // Room for many idle containers of hot functions, whose equal
        // rounded scores a 1e18 offset would order by seq.
        {"flame", [] { return makeFlame(flameConfig()); },
         [=] {
             auto expiry = std::make_unique<FlameKeepAlive>(flameConfig());
             const FlameKeepAlive *hot = expiry.get();
             return bundle(
                 vanilla(),
                 std::make_unique<Rescan>(
                     [hot](Engine &engine, Container &c) {
                         const double hot_bonus =
                             hot->isHot(engine, c.function) ? 0x1p50 : 0.0;
                         return hot_bonus + recency(engine, c);
                     },
                     std::move(expiry)));
         },
         4 * 1024},
        {"ttl",
         [=] {
             return bundle(vanilla(), std::make_unique<TtlKeepAlive>(sec(20)));
         },
         [=] {
             return bundle(
                 vanilla(),
                 std::make_unique<Rescan>(
                     [](Engine &, Container &c) {
                         return static_cast<double>(c.idle_since);
                     },
                     std::make_unique<TtlKeepAlive>(sec(20))));
         }},
        {"lru",
         [=] { return bundle(vanilla(), std::make_unique<LruKeepAlive>()); },
         [=] { return bundle(vanilla(), std::make_unique<Rescan>(recency)); }},
        {"rainbowcake",
         [] { return makeRainbowCake(rainbowCakeConfig(), kWorkers); },
         [=] {
             auto agent = std::make_unique<RainbowCakeAgent>(
                 rainbowCakeConfig(), kWorkers);
             auto keep_alive = std::make_unique<RescanRainbowCake>(
                 agent->layers(), rainbowCakeConfig());
             return bundle(vanilla(), std::move(keep_alive),
                           std::move(agent));
         }},
        {"hybrid", [] { return makeHybridHistogram(hybridConfig()); },
         [=] {
             auto agent = std::make_unique<HybridAgent>(hybridConfig());
             auto keep_alive = std::make_unique<Rescan>(
                 recency, std::make_unique<HybridKeepAlive>(
                              hybridConfig(), agent->history()));
             return bundle(vanilla(), std::move(keep_alive),
                           std::move(agent));
         }},
        {"ensure", [] { return makeEnsure(EnsureConfig{}); },
         [=] {
             return bundle(vanilla(), std::make_unique<Rescan>(recency),
                           std::make_unique<EnsureAgent>(EnsureConfig{}));
         }},
    };
}

trace::Trace
pressuredWorkload(std::uint64_t seed)
{
    trace::SyntheticSpec spec = trace::azureLikeSpec();
    spec.functions = 30;
    spec.duration = sim::minutes(3);
    spec.total_rps = 60.0;
    spec.burst_max = 90.0;
    return trace::generate(spec, seed);
}

core::EngineConfig
pressuredConfig(std::int64_t memory_mb)
{
    core::EngineConfig config;
    config.cluster.workers = kWorkers;
    config.cluster.total_memory_mb = memory_mb;
    config.record_per_request = true;
    return config;
}

struct Outcome
{
    std::vector<std::uint64_t> evicted; //!< Container::seq, in order
    core::RunMetrics metrics;
    /** Rescan::reapedAfterScan() of a reference run. */
    std::uint64_t reaped_after_scan = 0;
};

core::OrchestrationPolicy
logged(core::OrchestrationPolicy policy, std::vector<std::uint64_t> &log)
{
    policy.keep_alive =
        std::make_unique<Logged>(std::move(policy.keep_alive), log);
    return policy;
}

Outcome
runWhole(const trace::Trace &workload, const core::EngineConfig &config,
         const std::function<core::OrchestrationPolicy()> &make)
{
    Outcome out;
    core::OrchestrationPolicy policy = make();
    const auto *rescan = dynamic_cast<const Rescan *>(policy.keep_alive.get());
    Engine engine(workload, config,
                  logged(std::move(policy), out.evicted));
    out.metrics = engine.run();
    if (rescan != nullptr)
        out.reaped_after_scan = rescan->reapedAfterScan();
    return out;
}

Outcome
runResumed(const trace::Trace &workload, const core::EngineConfig &config,
           const std::function<core::OrchestrationPolicy()> &make)
{
    Outcome out;
    std::vector<std::byte> state;
    {
        Engine first(workload, config, logged(make(), out.evicted));
        first.begin();
        first.stepUntil(workload.duration() / 2);
        sim::StateWriter writer;
        first.saveState(writer);
        state = writer.release();
    }
    Engine second(workload, config, logged(make(), out.evicted));
    sim::StateReader reader(state);
    second.loadState(reader);
    out.metrics = second.finish();
    return out;
}

void
expectSameRun(const Outcome &want, const Outcome &got, const char *label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(got.evicted.size(), want.evicted.size());
    for (std::size_t i = 0; i < want.evicted.size(); ++i) {
        ASSERT_EQ(got.evicted[i], want.evicted[i])
            << "eviction sequences diverge at step " << i;
    }
    const core::RunMetrics &a = want.metrics;
    const core::RunMetrics &b = got.metrics;
    EXPECT_EQ(b.total(), a.total());
    EXPECT_EQ(b.evictions, a.evictions);
    EXPECT_EQ(b.expirations, a.expirations);
    EXPECT_EQ(b.compressions, a.compressions);
    EXPECT_EQ(b.containers_created, a.containers_created);
    EXPECT_EQ(b.deferred_provisions, a.deferred_provisions);
    EXPECT_EQ(b.wasted_cold_starts, a.wasted_cold_starts);
    // Bit-equal: per-request outcomes do not pin the memory integral.
    EXPECT_EQ(b.avgMemoryGb(), a.avgMemoryGb());
    EXPECT_EQ(b.avgOverheadRatioPct(), a.avgOverheadRatioPct());
    ASSERT_EQ(b.outcomes.size(), a.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        ASSERT_EQ(b.outcomes[i].type, a.outcomes[i].type) << "request " << i;
        ASSERT_EQ(b.outcomes[i].wait_us, a.outcomes[i].wait_us)
            << "request " << i;
    }
}

struct Case
{
    std::size_t family;
    int seed;
};

class RankingEquivalence : public ::testing::TestWithParam<Case>
{
};

TEST_P(RankingEquivalence, MergeMatchesRescanWholeAndResumed)
{
    const Family family = families()[GetParam().family];
    const trace::Trace workload =
        pressuredWorkload(static_cast<std::uint64_t>(GetParam().seed));

    const core::EngineConfig config = pressuredConfig(family.memory_mb);

    const Outcome reference = runWhole(workload, config, family.reference);
    EXPECT_GT(reference.metrics.evictions, 0u)
        << "the workload exerted no pressure";
    if (family.name == "icebreaker") {
        // The case the priority rebuild on onEvicted exists for: GDSF
        // folds a reaped container's last scanned priority into its
        // watermark.
        EXPECT_GT(reference.reaped_after_scan, 0u)
            << "no reaped container was scanned while idle";
    }

    expectSameRun(reference, runWhole(workload, config, family.production),
                  "uninterrupted");
    expectSameRun(reference,
                  runResumed(workload, config, family.production),
                  "resumed");
}

std::vector<Case>
cases()
{
    std::vector<Case> out;
    for (std::size_t f = 0; f < families().size(); ++f) {
        for (int seed = 1; seed <= 8; ++seed)
            out.push_back({f, seed});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Families, RankingEquivalence, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return families()[info.param.family].name + "_seed" +
            std::to_string(info.param.seed);
    });

} // namespace
} // namespace cidre::policies

/**
 * @file
 * RainbowCake baseline: layer-wise container caching and sharing
 * (Yu et al., ASPLOS'24), re-implemented at the granularity the CIDRE
 * evaluation exercises.
 *
 * Model: a container decomposes into three layers —
 *
 *   bare  (OS base,        ~15% of cost and memory, shared per worker),
 *   lang  (language runtime,~35%,  shared among same-runtime functions),
 *   user  (function code,   ~50%,  function-private).
 *
 * When a whole container is evicted or expires, its layers are demoted
 * into a per-worker layer cache with per-layer TTLs (user shortest, bare
 * longest).  A subsequent cold start on that worker pays only for the
 * layers that are missing; consuming a cached user layer removes it from
 * the cache (it becomes part of the container).  Layer memory is charged
 * against the same worker budget as containers; under pressure the
 * keep-alive half drops layers first (user → lang) and then evicts whole
 * containers LRU-first.
 *
 * Whole containers are kept on a short TTL (layers carry most of the
 * retention), which reproduces RainbowCake's published profile: low
 * memory usage and decent cold-start cost at low concurrency, degrading
 * under bursts when no idle layers remain (paper §5.4).
 */

#ifndef CIDRE_POLICIES_BASELINES_RAINBOWCAKE_H
#define CIDRE_POLICIES_BASELINES_RAINBOWCAKE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/policy.h"
#include "policies/keepalive/ranked.h"

namespace cidre::policies {

/** Layer cost/size fractions and TTLs. */
struct RainbowCakeConfig
{
    double bare_fraction = 0.05;
    double lang_fraction = 0.13;
    double user_fraction = 0.30;
    // The remainder (1 - bare - lang - user) is irreducible per-start
    // work (function init, sandbox wiring) that layer caching cannot
    // cover.

    sim::SimTime bare_ttl = sim::minutes(15);
    sim::SimTime lang_ttl = sim::minutes(8);
    sim::SimTime user_ttl = sim::minutes(3);

    /** Whole warm containers expire quickly; layers do the caching. */
    sim::SimTime container_ttl = sim::minutes(5);

    /**
     * Demote layers only while the worker keeps at least this fraction
     * of its memory free: layers are the lowest cache tier and must not
     * crowd out whole containers under hard pressure.
     */
    double demote_free_slack = 0.02;
};

/**
 * The shared layer-cache state, used by both halves of the baseline.
 * One instance is shared between the agent and the keep-alive policy.
 */
class LayerCache
{
  public:
    LayerCache(const RainbowCakeConfig &config, std::size_t workers);

    /** Demote an evicted container's layers into the cache. */
    void demote(core::Engine &engine, const cluster::Container &container);

    /**
     * Cold-start cost multiplier given cached layers; consumes the user
     * layer, refreshes shared-layer TTLs, and *locks* the lang layer for
     * the duration of the assembly: a shared layer serves one concurrent
     * provision at a time, which is exactly why RainbowCake degrades
     * under high concurrency (paper §5.4).
     * @param base_cost_us full cold-start latency (lock duration).
     */
    double coverProvision(core::Engine &engine,
                          const trace::FunctionProfile &fn,
                          cluster::WorkerId worker, sim::SimTime now,
                          sim::SimTime base_cost_us);

    /** Drop expired layers, releasing their memory. */
    void expire(core::Engine &engine, sim::SimTime now);

    /**
     * Free at least @p need_mb of layer memory on @p worker (user layers
     * first, then lang).  @return MB actually freed.
     */
    std::int64_t shed(core::Engine &engine, cluster::WorkerId worker,
                      std::int64_t need_mb);

    /** Total layer memory currently charged on @p worker. */
    std::int64_t layerMemoryMb(cluster::WorkerId worker) const;

    /** Checkpoint/restore (maps serialized in sorted key order). */
    void saveState(sim::StateWriter &writer) const;
    void loadState(sim::StateReader &reader);

  private:
    struct Layer
    {
        std::int64_t memory_mb = 0;
        sim::SimTime expires_at = 0;
        /** A shared layer serves one assembly at a time. */
        sim::SimTime busy_until = 0;
    };

    struct WorkerLayers
    {
        Layer bare; //!< memory 0 when absent
        std::unordered_map<std::uint8_t, Layer> lang; //!< by runtime
        std::unordered_map<trace::FunctionId, Layer> user;
    };

    void releaseLayer(core::Engine &engine, cluster::WorkerId worker,
                      Layer &layer);

    RainbowCakeConfig config_;
    std::vector<WorkerLayers> workers_;
};

/** The proactive half: TTL expiry of layers + provision-cost coverage.
 *  Owns the LayerCache shared with the keep-alive half. */
class RainbowCakeAgent : public core::ClusterAgent
{
  public:
    RainbowCakeAgent(const RainbowCakeConfig &config, std::size_t workers);

    const char *name() const override { return "rainbowcake-agent"; }

    LayerCache &layers() { return layers_; }

    void onTick(core::Engine &engine, sim::SimTime now) override;
    sim::SimTime provisionCost(core::Engine &engine,
                               const trace::FunctionProfile &function,
                               cluster::WorkerId worker,
                               sim::SimTime base_cost) override;
    void onContainerEvicted(core::Engine &engine,
                            const cluster::Container &container) override;

    /** Checkpoint/restore: the owned layer cache (shared with the
     *  keep-alive half by reference, so this covers the bundle). */
    void saveState(sim::StateWriter &writer) const override;
    void loadState(sim::StateReader &reader) override;

  private:
    LayerCache layers_;
};

/** The reactive half: layer shedding + LRU container eviction + TTL. */
class RainbowCakeKeepAlive : public RankedKeepAlive
{
  public:
    RainbowCakeKeepAlive(LayerCache &layers, const RainbowCakeConfig &config);

    const char *name() const override { return "rainbowcake"; }

    void planReclaim(core::Engine &engine,
                     const core::ReclaimRequest &request,
                     core::ReclaimPlan &plan) override;
    void collectExpired(core::Engine &engine, sim::SimTime now,
                        std::vector<cluster::ContainerId> &out) override;

  protected:
    /** Recency: LRU among whole containers. */
    double key(core::Engine &engine,
               const cluster::Container &container) override;

  private:
    LayerCache &layers_;
    RainbowCakeConfig config_;
};

/** Assemble the complete RainbowCake bundle (owns the shared cache). */
core::OrchestrationPolicy makeRainbowCake(
    const RainbowCakeConfig &config, std::size_t workers);

} // namespace cidre::policies

#endif // CIDRE_POLICIES_BASELINES_RAINBOWCAKE_H

/**
 * @file
 * GDSF keep-alive (FaasCache) and its concurrency-aware variant.
 *
 * FaasCache (Fuerst & Sharma, ASPLOS'21) ranks warm containers with
 * Greedy-Dual-Size-Frequency (paper Eq. 1):
 *
 *     Priority = Clock + Freq · Cost / Size
 *
 * where Clock is the cache-wide inflation watermark (the priority of the
 * last evicted victim), Freq the aggregate invocation count of the
 * function while cached, Cost the cold-start latency and Size the memory
 * footprint.
 *
 * FaasCache-C is the paper's §2.4 what-if variant (Eq. 2) that divides
 * by K, the number of warm containers the function currently has:
 *
 *     Priority = Clock + Freq · Cost / (Size · K)
 */

#ifndef CIDRE_POLICIES_KEEPALIVE_GDSF_H
#define CIDRE_POLICIES_KEEPALIVE_GDSF_H

#include <vector>

#include "policies/keepalive/ranked.h"

namespace cidre::policies {

/** FaasCache's GDSF keep-alive (Eq. 1). */
class GdsfKeepAlive : public RankedKeepAlive
{
  public:
    /** @param concurrency_aware true selects the Eq. 2 (-C) variant. */
    explicit GdsfKeepAlive(bool concurrency_aware = false);

    const char *name() const override
    {
        return concurrency_aware_ ? "faascache-c" : "faascache";
    }

    void onAdmit(core::Engine &engine, cluster::Container &container,
                 double eviction_watermark) override;
    void onUse(core::Engine &engine, cluster::Container &container,
               core::StartType type) override;
    void onEvicted(core::Engine &engine,
                   const cluster::Container &container) override;

    /** Current cache-wide clock watermark (visible for tests). */
    double watermark() const { return watermark_; }

    /** Checkpoint/restore: the base ranking, then the clock watermark
     *  and the while-cached frequencies. */
    void saveState(sim::StateWriter &writer) const override;
    void loadState(sim::StateReader &reader) override;

  protected:
    /** Clock: fixed from admit or use until the next use. */
    double key(core::Engine &engine,
               const cluster::Container &container) override;
    /** Freq·Cost/Size, or Freq·Cost/(Size·K) for the -C variant. */
    double bonus(core::Engine &engine, trace::FunctionId function) override;

  private:
    /** Freq: invocations received by the function while it is cached. */
    std::uint64_t &freqOf(core::Engine &engine, trace::FunctionId id);

    bool concurrency_aware_;
    double watermark_ = 0.0;
    std::vector<std::uint64_t> freq_;
};

} // namespace cidre::policies

#endif // CIDRE_POLICIES_KEEPALIVE_GDSF_H

/**
 * @file
 * A function container instance and its lifecycle.
 *
 * Lifecycle (paper §2.1):
 *
 *     Provisioning ──► Live (idle ⇄ busy) ──► Evicted
 *                        │        ▲
 *                        ▼        │ (restore pays a cost)
 *                      Compressed ┘            [CodeCrunch only]
 *
 * "Idle" and "busy" are not separate states: a live container is busy
 * while it has active requests and idle otherwise.  With intra-container
 * threading (Fig. 21) a container is *available* whenever it has a free
 * slot, even if other slots are executing.
 */

#ifndef CIDRE_CLUSTER_CONTAINER_H
#define CIDRE_CLUSTER_CONTAINER_H

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "trace/function_profile.h"

namespace cidre::cluster {

/**
 * A request carried by value from its arrival to its dispatch, in a
 * function channel, a bound queue or a bound deferred provision; its
 * function is the holder's.  Checkpointed raw, so it has no padding.
 */
struct PendingRequest
{
    /** Arrival order: the trace row, or the admission in a live run. */
    std::uint64_t index = 0;
    sim::SimTime arrival_us = 0;
    sim::SimTime exec_us = 0;
};
static_assert(sizeof(PendingRequest) == 24, "PendingRequest has no padding");

/**
 * FIFO of the requests bound to one container.
 *
 * A std::deque here would cost 80 bytes per container plus an eager
 * 512-byte node allocation on construction — paid by every container
 * ever provisioned even though most queues stay empty.  This compact
 * form is 32 bytes, allocates only on first use, and amortizes
 * pop_front with a head cursor (storage is recycled once drained).
 */
class BoundQueue
{
  public:
    bool empty() const { return head_ == items_.size(); }
    std::size_t size() const { return items_.size() - head_; }
    const PendingRequest &front() const { return items_[head_]; }
    void push_back(const PendingRequest &v) { items_.push_back(v); }
    void pop_front()
    {
        if (++head_ == items_.size()) {
            items_.clear();
            head_ = 0;
        }
    }

    /** The queued records, front first. */
    const PendingRequest *begin() const { return items_.data() + head_; }
    const PendingRequest *end() const { return items_.data() + items_.size(); }

    /** Checkpoint/restore (only the live suffix is kept). */
    template <typename Writer> void saveState(Writer &writer) const
    {
        writer.template put<std::uint64_t>(size());
        for (const PendingRequest &pending : *this)
            writer.put(pending);
    }
    template <typename Reader> void loadState(Reader &reader)
    {
        const auto count = reader.template get<std::uint64_t>();
        head_ = 0;
        items_.clear();
        for (std::uint64_t i = 0; i < count; ++i)
            items_.push_back(reader.template get<PendingRequest>());
    }

  private:
    std::vector<PendingRequest> items_;
    std::size_t head_ = 0;
};

/**
 * Dense container identifier — the container's *slot* in the cluster
 * slab.  Slots of evicted containers are recycled, so an id alone does
 * not name a container across evictions; Container::seq is the stable
 * (monotone, never reused) birth stamp for ordering and identity.
 */
using ContainerId = std::uint32_t;

inline constexpr ContainerId kInvalidContainer = UINT32_MAX;

/** Dense worker (server) identifier. */
using WorkerId = std::uint32_t;

/** Coarse lifecycle state; see the file comment for the diagram. */
enum class ContainerState : std::uint8_t
{
    Provisioning, //!< cold start in progress
    Live,         //!< warm; busy iff active > 0
    Compressed,   //!< CodeCrunch: memory shrunk, restore needed to reuse
    Evicted,      //!< terminal
};

const char *containerStateName(ContainerState state);

/** Why a container was provisioned (metrics + CSS bookkeeping). */
enum class ProvisionReason : std::uint8_t
{
    Demand,      //!< a request is bound to it (vanilla cold start)
    Speculative, //!< BSS/CSS speculative cold-start path
    Prewarm,     //!< pre-warming agent (IceBreaker, ENSURE, RainbowCake)
};

/**
 * One container instance.
 *
 * Plain data plus small helpers; the orchestration engine owns all state
 * transitions.  Policy-specific ranking state (clock/priority) lives here
 * so eviction policies don't need side tables on the hot path.
 */
struct Container
{
    ContainerId id = kInvalidContainer;
    /**
     * Monotone creation sequence, unique for the whole run (never
     * recycled, unlike the slot id).  Ascending seq is creation order,
     * which is what every (score, id) tie-break actually meant back
     * when ids were append-only — policies must order by seq, not id.
     */
    std::uint64_t seq = 0;
    trace::FunctionId function = trace::kInvalidFunction;
    WorkerId worker = 0;

    ContainerState state = ContainerState::Provisioning;
    ProvisionReason reason = ProvisionReason::Demand;

    /** Memory currently charged to the worker (shrinks when compressed). */
    std::int64_t memory_mb = 0;
    /** Full in-use footprint (restored on decompression). */
    std::int64_t full_memory_mb = 0;

    /** Max simultaneous requests (intra-container threads, Fig. 21). */
    std::uint32_t threads = 1;
    /** Requests currently executing in this container. */
    std::uint32_t active = 0;

    sim::SimTime created_at = 0;
    sim::SimTime provision_ends_at = 0;
    /** When the container last became idle (active hit 0). */
    sim::SimTime idle_since = 0;
    /** Last time a request was dispatched into it. */
    sim::SimTime last_used_at = 0;
    /** Completion time of the most recently finishing active request. */
    sim::SimTime busy_until = 0;

    /** Total requests ever served (the container-level reuse count). */
    std::uint64_t use_count = 0;

    /** Set while a compressed container inflates back to full size. */
    bool restoring = false;

    /**
     * The ranked keep-alive key (policies::RankedKeepAlive): GDSF's and
     * CIP's per-container logical clock, or the key another ranked
     * policy stored when the container last went idle.
     */
    double clock = 0.0;
    /**
     * Keep-alive priority: the score the last reclaim scan of its worker
     * gave the container while idle (written when the scan pops it, or
     * rebuilt from the scan record when it leaves the idle list), else
     * the value its policy set on admit or use.  Read by the engine's
     * eviction watermark (plan victims), CIP's clock refresh and GDSF's
     * watermark.
     */
    double priority = 0.0;

    // Intrusive indices for O(1) membership updates in the engine's
    // swap-erase lists; -1 means "not a member".  Maintained by the
    // engine / FunctionState only.
    std::int32_t avail_slot = -1;  //!< index in FunctionState::available()
    std::int32_t cached_slot = -1; //!< index in FunctionState::cached()
    std::int32_t idle_slot = -1;   //!< index in the worker idle list

    /**
     * Requests bound to this specific container (vanilla fixed-queue
     * dispatch of §2.4's Fig. 7 what-if).
     */
    BoundQueue bound_queue;

    bool provisioning() const { return state == ContainerState::Provisioning; }
    bool live() const { return state == ContainerState::Live; }
    bool compressed() const { return state == ContainerState::Compressed; }
    bool evicted() const { return state == ContainerState::Evicted; }

    /** Live with no active request: the only evictable condition. */
    bool idle() const { return live() && active == 0; }
    /** Live with at least one active request. */
    bool busy() const { return live() && active > 0; }
    /** Can accept a request right now without queuing. */
    bool hasFreeSlot() const { return live() && active < threads; }
};

} // namespace cidre::cluster

#endif // CIDRE_CLUSTER_CONTAINER_H

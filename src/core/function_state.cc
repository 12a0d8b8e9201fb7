#include "core/function_state.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/serialize.h"

namespace cidre::core {

namespace {

/**
 * Swap-erase @p c from @p list using the intrusive index @p slot_member,
 * fixing up the index of the element swapped into its place.
 */
template <auto SlotMember>
void
swapErase(std::vector<cluster::ContainerId> &list, cluster::Container &c,
          std::deque<cluster::Container> &slab)
{
    const std::int32_t slot = c.*SlotMember;
    if (slot < 0 || static_cast<std::size_t>(slot) >= list.size() ||
        list[static_cast<std::size_t>(slot)] != c.id) {
        throw std::logic_error("FunctionState: corrupt membership index");
    }
    const auto idx = static_cast<std::size_t>(slot);
    list[idx] = list.back();
    slab[list[idx]].*SlotMember = slot;
    list.pop_back();
    c.*SlotMember = -1;
}

} // namespace

FunctionState::FunctionState(trace::FunctionId id,
                             sim::SimTime window_horizon,
                             std::size_t window_cap)
    : id_(id),
      exec_window_(window_horizon, window_cap),
      cold_window_(window_horizon, window_cap),
      arrival_window_(window_horizon, window_cap)
{
}

void
FunctionState::addAvailable(cluster::Container &c)
{
    assert(c.avail_slot < 0);
    c.avail_slot = static_cast<std::int32_t>(available_.size());
    available_.push_back(c.id);
}

void
FunctionState::removeAvailable(cluster::Container &c,
                               std::deque<cluster::Container> &slab)
{
    swapErase<&cluster::Container::avail_slot>(available_, c, slab);
}

bool
FunctionState::isAvailable(const cluster::Container &c) const
{
    return c.avail_slot >= 0;
}

void
FunctionState::addCached(cluster::Container &c)
{
    assert(c.cached_slot < 0);
    c.cached_slot = static_cast<std::int32_t>(cached_.size());
    cached_.push_back(c.id);
    ++priority_epoch_; // |F(c)| of Eq. 3 changed
}

void
FunctionState::removeCached(cluster::Container &c,
                            std::deque<cluster::Container> &slab)
{
    swapErase<&cluster::Container::cached_slot>(cached_, c, slab);
    ++priority_epoch_;
}

void
FunctionState::busyEndInsert(sim::SimTime t)
{
    busy_ends_.insert(
        std::upper_bound(busy_ends_.begin(), busy_ends_.end(), t), t);
}

void
FunctionState::busyEndErase(sim::SimTime t)
{
    const auto it =
        std::lower_bound(busy_ends_.begin(), busy_ends_.end(), t);
    if (it == busy_ends_.end() || *it != t)
        throw std::logic_error("FunctionState: busy-end view out of sync");
    busy_ends_.erase(it);
}

void
FunctionState::noteBusy(bool became_busy)
{
    if (became_busy) {
        ++busy_count_;
    } else {
        if (busy_count_ == 0)
            throw std::logic_error("FunctionState: busy count underflow");
        --busy_count_;
    }
}

void
FunctionState::noteProvisioning(bool started)
{
    if (started) {
        ++provisioning_count_;
    } else {
        if (provisioning_count_ == 0)
            throw std::logic_error("FunctionState: provisioning underflow");
        --provisioning_count_;
    }
}

void
FunctionState::noteArrival(sim::SimTime now)
{
    ++total_invocations_;
    if (first_request_at_ < 0)
        first_request_at_ = now;
    ++priority_epoch_; // n_F of Eq. 4 changed
    arrival_window_.add(now, static_cast<double>(now));
}

double
FunctionState::freqPerMinute(sim::SimTime now) const
{
    if (first_request_at_ < 0 || total_invocations_ == 0)
        return 0.0;
    // Eq. 4: n_F / minutes since the first request.  Clamp the horizon
    // to one minute so brand-new functions don't get unbounded rates.
    const double mins =
        std::max(1.0, sim::toMin(now - first_request_at_));
    return static_cast<double>(total_invocations_) / mins;
}

void
FunctionState::saveState(sim::StateWriter &writer) const
{
    writer.put(bss_enabled);
    writer.put(t_i_us);
    writer.put(t_d_us);
    writer.put(tracked_spec_container);
    writer.put(tracked_spec_ready_at);
    writer.put(last_head_evaluated);
    writer.putVector(available_);
    writer.putVector(cached_);
    writer.put(busy_count_);
    writer.put(provisioning_count_);
    writer.put<std::uint64_t>(channel_.size());
    for (const cluster::PendingRequest &pending : channel_)
        writer.put(pending);
    writer.put(total_invocations_);
    writer.put(first_request_at_);
    writer.put(priority_epoch_);
    writer.putVector(busy_ends_);
    exec_window_.saveState(writer);
    cold_window_.saveState(writer);
    arrival_window_.saveState(writer);
}

void
FunctionState::loadState(sim::StateReader &reader)
{
    bss_enabled = reader.get<bool>();
    t_i_us = reader.get<double>();
    t_d_us = reader.get<double>();
    tracked_spec_container = reader.get<cluster::ContainerId>();
    tracked_spec_ready_at = reader.get<sim::SimTime>();
    last_head_evaluated = reader.get<std::uint64_t>();
    available_ = reader.getVector<cluster::ContainerId>();
    cached_ = reader.getVector<cluster::ContainerId>();
    busy_count_ = reader.get<std::uint32_t>();
    provisioning_count_ = reader.get<std::uint32_t>();
    const auto pending_count = reader.get<std::uint64_t>();
    channel_.clear();
    for (std::uint64_t i = 0; i < pending_count; ++i)
        channel_.push_back(reader.get<cluster::PendingRequest>());
    total_invocations_ = reader.get<std::uint64_t>();
    first_request_at_ = reader.get<sim::SimTime>();
    priority_epoch_ = reader.get<std::uint64_t>();
    busy_ends_ = reader.getVector<sim::SimTime>();
    exec_window_.loadState(reader);
    cold_window_.loadState(reader);
    arrival_window_.loadState(reader);
}

} // namespace cidre::core

#include "stats/sliding_window.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/serialize.h"

namespace cidre::stats {

SlidingWindow::SlidingWindow(sim::SimTime horizon, std::size_t max_samples)
    : horizon_(horizon), max_samples_(max_samples)
{
    if (max_samples_ == 0)
        throw std::invalid_argument("SlidingWindow: max_samples must be > 0");
}

void
SlidingWindow::growRing()
{
    const std::size_t want =
        std::min(max_samples_, std::max<std::size_t>(16, ring_.size() * 2));
    std::vector<Entry> grown;
    grown.resize(want);
    for (std::size_t i = 0; i < size_; ++i)
        grown[i] = at(i);
    ring_ = std::move(grown);
    head_ = 0;
    sorted_.reserve(want);
}

void
SlidingWindow::dropFront()
{
    assert(size_ > 0);
    const Entry &front = ring_[head_];
    sum_ -= front.value;
    if (ranked_) {
        const auto it =
            std::lower_bound(sorted_.begin(), sorted_.end(), front.value);
        assert(it != sorted_.end() && *it == front.value);
        sorted_.erase(it);
    }
    head_ = (head_ + 1) % ring_.size();
    --size_;
    if (size_ == 0) {
        head_ = 0;
        sum_ = 0.0; // shed accumulated floating-point drift
    }
}

void
SlidingWindow::expire(sim::SimTime now)
{
    if (horizon_ == sim::kTimeInfinity)
        return;
    const sim::SimTime cutoff = now - horizon_;
    while (size_ > 0 && ring_[head_].when < cutoff)
        dropFront();
}

void
SlidingWindow::add(sim::SimTime now, double value)
{
    assert(size_ == 0 || now >= at(size_ - 1).when);
    if (size_ == max_samples_)
        dropFront(); // retention cap: newest wins
    if (size_ == ring_.size())
        growRing();
    ring_[(head_ + size_) % ring_.size()] = {now, value};
    ++size_;
    sum_ += value;
    if (ranked_) {
        sorted_.insert(
            std::upper_bound(sorted_.begin(), sorted_.end(), value), value);
    }
    expire(now);
}

double
SlidingWindow::percentile(double q) const
{
    if (size_ == 0)
        throw std::logic_error("SlidingWindow::percentile on empty window");
    if (q < 0.0 || q > 1.0)
        throw std::invalid_argument("SlidingWindow::percentile: bad q");
    if (!ranked_) {
        // First read: sort the retained values once (into the storage
        // growRing() reserved); add() and dropFront() keep them sorted
        // from here on.
        sorted_.clear();
        for (std::size_t i = 0; i < size_; ++i)
            sorted_.push_back(at(i).value);
        std::sort(sorted_.begin(), sorted_.end());
        ranked_ = true;
    }
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(size_ - 1) + 0.5);
    return sorted_[rank];
}

double
SlidingWindow::mean() const
{
    if (size_ == 0)
        return 0.0;
    return sum_ / static_cast<double>(size_);
}

double
SlidingWindow::latest() const
{
    if (size_ == 0)
        throw std::logic_error("SlidingWindow::latest on empty window");
    return at(size_ - 1).value;
}

sim::SimTime
SlidingWindow::earliestTime() const
{
    if (size_ == 0)
        throw std::logic_error("SlidingWindow::earliestTime: empty window");
    return ring_[head_].when;
}

sim::SimTime
SlidingWindow::latestTime() const
{
    if (size_ == 0)
        throw std::logic_error("SlidingWindow::latestTime: empty window");
    return at(size_ - 1).when;
}

void
SlidingWindow::saveState(sim::StateWriter &writer) const
{
    writer.put(horizon_);
    writer.put<std::uint64_t>(max_samples_);
    writer.put(sum_);
    writer.put<std::uint64_t>(size_);
    for (std::size_t i = 0; i < size_; ++i)
        writer.put(at(i));
}

void
SlidingWindow::loadState(sim::StateReader &reader)
{
    // The shape comes from the constructor (the engine config), never
    // from the payload: the configured cap then bounds the allocation.
    const auto horizon = reader.get<sim::SimTime>();
    const auto max_samples = reader.get<std::uint64_t>();
    if (horizon != horizon_ || max_samples != max_samples_)
        throw std::runtime_error(
            "SlidingWindow: checkpoint does not match the window's "
            "horizon or sample cap");
    sum_ = reader.get<double>();
    const auto count = reader.get<std::uint64_t>();
    if (count > max_samples_)
        throw std::runtime_error("SlidingWindow: corrupt checkpoint");
    ring_.clear();
    ring_.resize(static_cast<std::size_t>(count));
    for (Entry &entry : ring_)
        entry = reader.get<Entry>();
    sorted_.clear();
    sorted_.reserve(ring_.size());
    ranked_ = false;
    head_ = 0;
    size_ = ring_.size();
}

} // namespace cidre::stats

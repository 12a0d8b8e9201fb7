#include "stats/sliding_window.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "sim/serialize.h"

namespace cidre::stats {

namespace {

/**
 * Number of leading elements of the ascending @p values[0, n) for which
 * @p before(element) holds, by a halving search with no data-dependent
 * branch, so a rank costs no mispredictions.
 */
template <typename Before>
std::size_t
rankOf(const double *values, std::size_t n, Before before)
{
    if (n == 0)
        return 0;
    // The rank lies in [lo, lo + n]; each step halves n.  Written as a
    // select of two indices, the step compiles to a cmov (GCC keeps a
    // branch for a conditional add to a pointer).
    std::size_t lo = 0;
    while (n > 1) {
        const std::size_t half = n / 2;
        lo = before(values[lo + half - 1]) ? lo + half : lo;
        n -= half;
    }
    return lo + (before(values[lo]) ? 1 : 0);
}

/** Rank of the first copy of @p value in the ascending @p sorted. */
std::size_t
lowerRank(const std::vector<double> &sorted, double value)
{
    return rankOf(sorted.data(), sorted.size(),
                  [value](double x) { return x < value; });
}

/** Rank just past the last copy of @p value in the ascending @p sorted. */
std::size_t
upperRank(const std::vector<double> &sorted, double value)
{
    return rankOf(sorted.data(), sorted.size(),
                  [value](double x) { return !(value < x); });
}

} // namespace

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
        const std::size_t rank = lowerRank(sorted_, front.value);
        assert(rank < sorted_.size() && sorted_[rank] == front.value);
        sorted_.erase(sorted_.begin() + static_cast<std::ptrdiff_t>(rank));
    }
    if (++head_ == ring_.size())
        head_ = 0;
    --size_;
    if (size_ == 0) {
        head_ = 0;
        sum_ = 0.0; // shed accumulated floating-point drift
    }
}

void
SlidingWindow::replaceFront(sim::SimTime now, double value)
{
    // The ring is full, so the oldest slot is where the newest goes.
    assert(size_ == max_samples_ && size_ == ring_.size());
    Entry &slot = ring_[head_];
    const double old = slot.value;
    // Bit for bit what dropFront() then an append would leave: a window
    // of one empties in between, which resets the sum to zero.
    sum_ = (size_ == 1 ? 0.0 : sum_ - old) + value;
    slot = {now, value};
    if (++head_ == ring_.size())
        head_ = 0;
    if (!ranked_)
        return;
    // The companion drops the first copy of the old value and takes the
    // new one after every copy of it: one shift of the values between
    // the two ranks moves them into place.
    double *sorted = sorted_.data();
    const std::size_t from = lowerRank(sorted_, old);
    const std::size_t to = upperRank(sorted_, value);
    assert(from < sorted_.size() && sorted[from] == old);
    if (to > from) {
        std::memmove(sorted + from, sorted + from + 1,
                     (to - 1 - from) * sizeof(double));
        sorted[to - 1] = value;
    } else {
        std::memmove(sorted + to + 1, sorted + to,
                     (from - to) * sizeof(double));
        sorted[to] = value;
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
    if (size_ == max_samples_) {
        replaceFront(now, value); // retention cap: newest wins
    } else {
        if (size_ == ring_.size())
            growRing();
        std::size_t tail = head_ + size_;
        if (tail >= ring_.size())
            tail -= ring_.size();
        ring_[tail] = {now, value};
        ++size_;
        sum_ += value;
        if (ranked_) {
            const std::size_t rank = upperRank(sorted_, value);
            sorted_.insert(
                sorted_.begin() + static_cast<std::ptrdiff_t>(rank), value);
        }
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

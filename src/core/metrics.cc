#include "core/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "sim/serialize.h"

namespace cidre::core {

const char *
startTypeName(StartType type)
{
    switch (type) {
      case StartType::Warm:
        return "warm";
      case StartType::DelayedWarm:
        return "delayed-warm";
      case StartType::Cold:
        return "cold";
      case StartType::Restored:
        return "restored";
      case StartType::kCount:
        break;
    }
    throw std::invalid_argument("startTypeName: bad type");
}

void
RunMetrics::recordStart(StartType type, sim::SimTime wait_us,
                        sim::SimTime exec_us)
{
    const auto idx = static_cast<std::size_t>(type);
    ++counts_.at(idx);
    const auto wait = static_cast<double>(wait_us);
    const auto exec = static_cast<double>(exec_us);
    wait_by_type_[idx].add(wait);
    // Trace and Engine::admit reject negative times, so these casts
    // keep every value.
    overhead_us_.record(static_cast<std::uint64_t>(wait_us));
    e2e_us_.record(static_cast<std::uint64_t>(wait_us + exec_us));
    // Overhead ratio definition from §2.4: wait / (wait + exec).  A
    // zero-duration request with zero wait counts as 0 overhead.
    overhead_ratio_.add(wait + exec > 0.0 ? wait / (wait + exec) : 0.0);
}

void
RunMetrics::noteMemoryUsage(sim::SimTime now, std::int64_t used_mb)
{
    if (now < last_memory_change_)
        throw std::logic_error("RunMetrics: time went backwards");
    mb_time_integral_ += static_cast<double>(current_used_mb_) *
        static_cast<double>(now - last_memory_change_);
    last_memory_change_ = now;
    current_used_mb_ = used_mb;
    peak_used_mb_ = std::max(peak_used_mb_, used_mb);
}

void
RunMetrics::finalize(sim::SimTime now)
{
    if (finalized_)
        return;
    noteMemoryUsage(now, current_used_mb_);
    makespan_ = now;
    finalized_ = true;
}

void
RunMetrics::mergeAggregates(const RunMetrics &other)
{
    containers_created += other.containers_created;
    provisioned_mb += other.provisioned_mb;
    evictions += other.evictions;
    expirations += other.expirations;
    compressions += other.compressions;
    prewarms += other.prewarms;
    wasted_cold_starts += other.wasted_cold_starts;
    deferred_provisions += other.deferred_provisions;
    cancelled_provisions += other.cancelled_provisions;
    slo_violations += other.slo_violations;

    for (std::size_t i = 0; i < counts_.size(); ++i) {
        counts_[i] += other.counts_[i];
        wait_by_type_[i].merge(other.wait_by_type_[i]);
    }
    overhead_ratio_.merge(other.overhead_ratio_);
    overhead_us_.merge(other.overhead_us_);
    e2e_us_.merge(other.e2e_us_);

    mb_time_integral_ += other.mb_time_integral_;
}

void
RunMetrics::merge(const RunMetrics &other)
{
    if (!finalized_ || !other.finalized_)
        throw std::logic_error("RunMetrics::merge: both runs must be"
                               " finalized");
    if (&other == this)
        throw std::logic_error("RunMetrics::merge: self-merge");

    mergeAggregates(other);
    outcomes.insert(outcomes.end(), other.outcomes.begin(),
                    other.outcomes.end());
    peak_used_mb_ = std::max(peak_used_mb_, other.peak_used_mb_);
    // Total simulated time: keeps avgMemoryGb() the time-weighted mean
    // of the merged runs.
    makespan_ += other.makespan_;
}

void
RunMetrics::mergeConcurrent(const RunMetrics &other)
{
    if (!finalized_ || !other.finalized_)
        throw std::logic_error("RunMetrics::mergeConcurrent: both runs"
                               " must be finalized");
    if (&other == this)
        throw std::logic_error("RunMetrics::mergeConcurrent: self-merge");

    mergeAggregates(other);
    // Cells coexist in time: the spans overlay (max) and per-cell peaks
    // can only bound the cluster-wide peak from above (sum).
    peak_used_mb_ += other.peak_used_mb_;
    makespan_ = std::max(makespan_, other.makespan_);
}

std::uint64_t
RunMetrics::count(StartType type) const
{
    return counts_.at(static_cast<std::size_t>(type));
}

std::uint64_t
RunMetrics::total() const
{
    std::uint64_t sum = 0;
    for (const auto c : counts_)
        sum += c;
    return sum;
}

double
RunMetrics::ratio(StartType type) const
{
    const auto n = total();
    return n == 0
        ? 0.0
        : static_cast<double>(count(type)) / static_cast<double>(n);
}

double
RunMetrics::warmRatio() const
{
    return ratio(StartType::Warm) + ratio(StartType::Restored);
}

double
RunMetrics::avgOverheadRatioPct() const
{
    return overhead_ratio_.mean() * 100.0;
}

double
RunMetrics::avgOverheadMs() const
{
    return overhead_us_.mean() / 1e3;
}

double
RunMetrics::avgWaitMs(StartType type) const
{
    return wait_by_type_.at(static_cast<std::size_t>(type)).mean() / 1e3;
}

double
RunMetrics::avgMemoryGb() const
{
    if (makespan_ <= 0)
        return static_cast<double>(current_used_mb_) / 1024.0;
    return mb_time_integral_ / static_cast<double>(makespan_) / 1024.0;
}

double
RunMetrics::peakMemoryGb() const
{
    return static_cast<double>(peak_used_mb_) / 1024.0;
}

void
RunMetrics::saveState(sim::StateWriter &writer) const
{
    writer.put(containers_created);
    writer.put(provisioned_mb);
    writer.put(evictions);
    writer.put(expirations);
    writer.put(compressions);
    writer.put(prewarms);
    writer.put(wasted_cold_starts);
    writer.put(deferred_provisions);
    writer.put(cancelled_provisions);
    writer.put(slo_violations);
    for (const std::uint64_t count : counts_)
        writer.put(count);
    for (const stats::OnlineSummary &summary : wait_by_type_)
        summary.saveState(writer);
    overhead_ratio_.saveState(writer);
    overhead_us_.saveState(writer);
    e2e_us_.saveState(writer);
    writer.put(mb_time_integral_);
    writer.put(current_used_mb_);
    writer.put(peak_used_mb_);
    writer.put(last_memory_change_);
    writer.put(makespan_);
    writer.put(finalized_);
    writer.putVector(outcomes);
}

void
RunMetrics::loadState(sim::StateReader &reader)
{
    containers_created = reader.get<std::uint64_t>();
    provisioned_mb = reader.get<std::uint64_t>();
    evictions = reader.get<std::uint64_t>();
    expirations = reader.get<std::uint64_t>();
    compressions = reader.get<std::uint64_t>();
    prewarms = reader.get<std::uint64_t>();
    wasted_cold_starts = reader.get<std::uint64_t>();
    deferred_provisions = reader.get<std::uint64_t>();
    cancelled_provisions = reader.get<std::uint64_t>();
    slo_violations = reader.get<std::uint64_t>();
    for (std::uint64_t &count : counts_)
        count = reader.get<std::uint64_t>();
    for (stats::OnlineSummary &summary : wait_by_type_)
        summary.loadState(reader);
    overhead_ratio_.loadState(reader);
    overhead_us_.loadState(reader);
    e2e_us_.loadState(reader);
    mb_time_integral_ = reader.get<double>();
    current_used_mb_ = reader.get<std::int64_t>();
    peak_used_mb_ = reader.get<std::int64_t>();
    last_memory_change_ = reader.get<sim::SimTime>();
    makespan_ = reader.get<sim::SimTime>();
    finalized_ = reader.get<bool>();
    outcomes = reader.getVector<RequestOutcome>();
}

} // namespace cidre::core

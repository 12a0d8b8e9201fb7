#include "core/metrics_io.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace cidre::core {

namespace {

/** Minimal JSON emitter for flat objects. */
class JsonObject
{
  public:
    explicit JsonObject(std::ostream &out) : out_(out) { out_ << "{"; }

    void field(const char *name, double value)
    {
        sep();
        out_ << "\"" << name << "\": " << std::setprecision(10) << value;
    }

    void field(const char *name, std::uint64_t value)
    {
        sep();
        out_ << "\"" << name << "\": " << value;
    }

    void raw(const char *name, const std::string &json)
    {
        sep();
        out_ << "\"" << name << "\": " << json;
    }

    void close() { out_ << "}"; }

  private:
    void sep()
    {
        if (!first_)
            out_ << ", ";
        first_ = false;
    }

    std::ostream &out_;
    bool first_ = true;
};

std::string
percentilesJson(const stats::LatencyHistogram &histogram)
{
    if (histogram.count() == 0)
        return "null";
    std::string out = "{";
    const double qs[] = {0.25, 0.50, 0.75, 0.90, 0.99};
    const char *names[] = {"p25", "p50", "p75", "p90", "p99"};
    for (int i = 0; i < 5; ++i) {
        if (i)
            out += ", ";
        out += '"';
        out += names[i];
        out += "_ms\": ";
        out += std::to_string(histogram.percentile(qs[i]) / 1e3);
    }
    out += "}";
    return out;
}

} // namespace

void
writeMetricsJson(const RunMetrics &metrics, std::ostream &out)
{
    JsonObject json(out);
    json.field("requests", metrics.total());
    json.field("warm", metrics.count(StartType::Warm));
    json.field("delayed_warm", metrics.count(StartType::DelayedWarm));
    json.field("cold", metrics.count(StartType::Cold));
    json.field("restored", metrics.count(StartType::Restored));
    json.field("cold_ratio", metrics.coldRatio());
    json.field("delayed_ratio", metrics.delayedRatio());
    json.field("warm_ratio", metrics.warmRatio());
    json.field("avg_overhead_ratio_pct", metrics.avgOverheadRatioPct());
    json.field("avg_overhead_ms", metrics.avgOverheadMs());
    json.raw("overhead", percentilesJson(metrics.overheadHistogram()));
    json.raw("e2e", percentilesJson(metrics.e2eHistogram()));
    json.field("containers_created", metrics.containers_created);
    json.field("provisioned_mb", metrics.provisioned_mb);
    json.field("evictions", metrics.evictions);
    json.field("expirations", metrics.expirations);
    json.field("compressions", metrics.compressions);
    json.field("prewarms", metrics.prewarms);
    json.field("wasted_cold_starts", metrics.wasted_cold_starts);
    json.field("deferred_provisions", metrics.deferred_provisions);
    json.field("cancelled_provisions", metrics.cancelled_provisions);
    json.field("avg_memory_gb", metrics.avgMemoryGb());
    json.field("peak_memory_gb", metrics.peakMemoryGb());
    json.field("makespan_s", sim::toSec(metrics.makespan()));
    json.close();
    out << "\n";
}

void
writeMetricsJsonFile(const RunMetrics &metrics, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("writeMetricsJsonFile: cannot open " +
                                 path);
    writeMetricsJson(metrics, out);
    if (!out)
        throw std::runtime_error("writeMetricsJsonFile: write failed for " +
                                 path);
}

std::vector<FunctionBreakdown>
perFunctionBreakdown(trace::TraceView workload,
                     const RunMetrics &metrics, std::size_t top)
{
    if (metrics.outcomes.size() != workload.requestCount()) {
        throw std::invalid_argument(
            "perFunctionBreakdown: run without record_per_request");
    }
    std::vector<FunctionBreakdown> all(workload.functionCount());
    for (std::size_t i = 0; i < metrics.outcomes.size(); ++i) {
        const trace::FunctionId function = workload.requestFunction(i);
        const RequestOutcome &outcome = metrics.outcomes[i];
        FunctionBreakdown &fb = all[function];
        fb.function = function;
        ++fb.requests;
        fb.cold += outcome.type == StartType::Cold;
        fb.delayed += outcome.type == StartType::DelayedWarm;
        fb.total_wait_ms += sim::toMs(outcome.wait_us);
    }
    for (auto &fb : all) {
        if (fb.function != trace::kInvalidFunction) {
            fb.name = workload.function(fb.function).name;
            fb.avg_wait_ms = fb.requests
                ? fb.total_wait_ms / static_cast<double>(fb.requests)
                : 0.0;
        }
    }
    all.erase(std::remove_if(all.begin(), all.end(),
                             [](const FunctionBreakdown &fb) {
                                 return fb.requests == 0;
                             }),
              all.end());
    std::sort(all.begin(), all.end(),
              [](const FunctionBreakdown &a, const FunctionBreakdown &b) {
                  return a.total_wait_ms > b.total_wait_ms;
              });
    if (all.size() > top)
        all.resize(top);
    return all;
}

} // namespace cidre::core

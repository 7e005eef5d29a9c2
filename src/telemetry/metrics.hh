/**
 * @file
 * MetricRegistry — one namespace for every number the simulator can
 * report: counters, gauges, and log-bucketed cycle histograms with
 * deterministic p50/p90/p99 extraction.
 *
 * The existing ad-hoc stats structs (MonitorStats, ServiceStats,
 * SchedulerStats, IptStats, TrainingStats) keep their APIs; each
 * subsystem registers a *source* callback that publishes the struct's
 * fields into the registry at collect() time. Benches and sinks then
 * export one uniform shape instead of five hand-rolled dumps.
 *
 * Iteration order is sorted-by-name everywhere, so two identical runs
 * serialize byte-identical JSON.
 */

#ifndef FLOWGUARD_TELEMETRY_METRICS_HH
#define FLOWGUARD_TELEMETRY_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "support/stats.hh"

namespace flowguard::telemetry {

/** Monotonic event count. */
class Counter
{
  public:
    void inc(uint64_t n = 1) { _value += n; }
    /** Sources overwrite with the struct's live total. */
    void set(uint64_t v) { _value = v; }
    uint64_t value() const { return _value; }

  private:
    uint64_t _value = 0;
};

/** Point-in-time level (ratios, sizes, percentages). */
class Gauge
{
  public:
    void set(double v) { _value = v; }
    double value() const { return _value; }

  private:
    double _value = 0.0;
};

/**
 * Power-of-two bucketed histogram for cycle costs. Bucket i counts
 * samples in [2^(i-1), 2^i); bucket 0 counts zeros. Quantiles are
 * extracted by linear interpolation inside the covering bucket —
 * coarse, but allocation-free on the record path and bit-for-bit
 * deterministic, which sample-retaining Distribution cannot promise
 * once merged across reorderable sources.
 */
class CycleHistogram
{
  public:
    static constexpr size_t kBuckets = 65;

    void record(uint64_t cycles);

    uint64_t count() const { return _count; }
    uint64_t sum() const { return _sum; }
    uint64_t min() const { return _count ? _min : 0; }
    uint64_t max() const { return _max; }
    double mean() const;

    /** Quantile estimate; q in [0, 1]. 0 when empty. */
    double quantile(double q) const;
    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }

    const uint64_t *buckets() const { return _buckets; }

  private:
    uint64_t _buckets[kBuckets] = {};
    uint64_t _count = 0;
    uint64_t _sum = 0;
    uint64_t _min = 0;
    uint64_t _max = 0;
};

/**
 * Named metric store. counter()/gauge()/histogram() create on first
 * use and return a stable reference — callers may cache the pointer
 * for hot paths. addSource() registers a callback that republishes a
 * live stats struct; collect() runs every source.
 */
class MetricRegistry
{
  public:
    using Source = std::function<void(MetricRegistry &)>;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    CycleHistogram &histogram(const std::string &name);

    /** `label` shows up in errors only; sources run in add order. */
    void addSource(std::string label, Source source);

    /** Re-publishes every registered source into the registry. */
    void collect();

    size_t size() const
    {
        return _counters.size() + _gauges.size() + _histograms.size();
    }

    /**
     * Serializes every metric, sorted by name, as one object:
     * counters/gauges as scalars, histograms as
     * {count,sum,min,max,mean,p50,p90,p99}. Writes a complete JSON
     * value — callers key() it into an enclosing object.
     */
    void writeJson(JsonWriter &json) const;

  private:
    // std::map: sorted iteration is the determinism contract.
    std::map<std::string, std::unique_ptr<Counter>> _counters;
    std::map<std::string, std::unique_ptr<Gauge>> _gauges;
    std::map<std::string, std::unique_ptr<CycleHistogram>> _histograms;
    std::vector<std::pair<std::string, Source>> _sources;
};

/**
 * Standard BENCH_*.json shape: {"bench": name, "smoke": flag,
 * "metrics": {...}} — the shared export path benches converge on so
 * artifact shapes stop drifting per bench.
 */
void writeBenchJson(const std::string &path, const std::string &bench,
                    bool smoke, MetricRegistry &registry);

} // namespace flowguard::telemetry

#endif // FLOWGUARD_TELEMETRY_METRICS_HH

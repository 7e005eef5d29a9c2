#include "telemetry/metrics.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"

namespace flowguard::telemetry {

void
CycleHistogram::record(uint64_t cycles)
{
    const size_t bucket =
        cycles == 0 ? 0 : static_cast<size_t>(std::bit_width(cycles));
    ++_buckets[std::min(bucket, kBuckets - 1)];
    if (_count == 0 || cycles < _min)
        _min = cycles;
    _max = std::max(_max, cycles);
    _sum += cycles;
    ++_count;
}

double
CycleHistogram::mean() const
{
    return _count ? static_cast<double>(_sum) / _count : 0.0;
}

double
CycleHistogram::quantile(double q) const
{
    if (_count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(_count);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        if (_buckets[i] == 0)
            continue;
        seen += _buckets[i];
        if (static_cast<double>(seen) < rank)
            continue;
        if (i == 0)
            return 0.0;
        // Interpolate inside [2^(i-1), 2^i) by the rank's position
        // within this bucket's population.
        const double lo = static_cast<double>(uint64_t{1} << (i - 1));
        const double hi = lo * 2.0;
        const double into =
            1.0 - (static_cast<double>(seen) - rank) / _buckets[i];
        double v = lo + (hi - lo) * into;
        // The sample extremes are exact; never report past them.
        v = std::max(v, static_cast<double>(_min));
        return std::min(v, static_cast<double>(_max));
    }
    return static_cast<double>(_max);
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    auto &slot = _counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    auto &slot = _gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

CycleHistogram &
MetricRegistry::histogram(const std::string &name)
{
    auto &slot = _histograms[name];
    if (!slot)
        slot = std::make_unique<CycleHistogram>();
    return *slot;
}

void
MetricRegistry::addSource(std::string label, Source source)
{
    fg_assert(source, "metric source '", label, "' is empty");
    _sources.emplace_back(std::move(label), std::move(source));
}

void
MetricRegistry::collect()
{
    for (auto &[label, source] : _sources)
        source(*this);
}

void
MetricRegistry::writeJson(JsonWriter &json) const
{
    json.beginObject();
    for (const auto &[name, counter] : _counters)
        json.field(name, counter->value());
    for (const auto &[name, gauge] : _gauges)
        json.field(name, gauge->value());
    for (const auto &[name, histogram] : _histograms) {
        json.key(name).beginObject();
        json.field("count", histogram->count());
        json.field("sum", histogram->sum());
        json.field("min", histogram->min());
        json.field("max", histogram->max());
        json.field("mean", histogram->mean());
        json.field("p50", histogram->p50());
        json.field("p90", histogram->p90());
        json.field("p99", histogram->p99());
        json.endObject();
    }
    json.endObject();
}

void
writeBenchJson(const std::string &path, const std::string &bench,
               bool smoke, MetricRegistry &registry)
{
    registry.collect();
    JsonWriter json;
    json.beginObject();
    json.field("bench", bench);
    json.field("smoke", smoke);
    json.key("metrics");
    registry.writeJson(json);
    json.endObject();
    json.writeFile(path);
}

} // namespace flowguard::telemetry

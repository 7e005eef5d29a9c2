/**
 * @file
 * Unit tests for the metric registry: counters, gauges, log-bucketed
 * cycle histograms (quantile extraction), source re-publication, and
 * the shared BENCH_*.json export shape.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "runtime/monitor.hh"
#include "runtime/service.hh"
#include "support/logging.hh"
#include "telemetry/metrics.hh"
#include "trace/ipt.hh"

namespace {

using namespace flowguard;
using telemetry::CycleHistogram;
using telemetry::MetricRegistry;

TEST(Counter, IncAndSet)
{
    MetricRegistry registry;
    auto &c = registry.counter("checks");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    c.set(3);
    EXPECT_EQ(c.value(), 3u);
    // Same name returns the same counter.
    EXPECT_EQ(&registry.counter("checks"), &c);
}

TEST(Gauge, SetOverwrites)
{
    MetricRegistry registry;
    auto &g = registry.gauge("overhead_ratio");
    g.set(0.5);
    g.set(0.25);
    EXPECT_DOUBLE_EQ(g.value(), 0.25);
}

TEST(CycleHistogram, CountSumMinMaxMean)
{
    CycleHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    h.record(10);
    h.record(30);
    h.record(20);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 60u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 30u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(CycleHistogram, ZeroGoesToBucketZero)
{
    CycleHistogram h;
    h.record(0);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 0u);
}

TEST(CycleHistogram, QuantilesAreOrderedAndBounded)
{
    CycleHistogram h;
    for (uint64_t i = 1; i <= 1000; ++i)
        h.record(i);
    const double p50 = h.p50();
    const double p90 = h.p90();
    const double p99 = h.p99();
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // Bucketed interpolation is coarse but must land in the right
    // power-of-two neighborhood of the true quantiles.
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 1024.0);
    EXPECT_GE(p99, 512.0);
    EXPECT_LE(p99, 1024.0);
    EXPECT_LE(p99, static_cast<double>(h.max()));
}

TEST(CycleHistogram, QuantileOfEmptyIsZero)
{
    CycleHistogram h;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(CycleHistogram, SingleSampleQuantileIsNearSample)
{
    CycleHistogram h;
    h.record(100);
    // One sample in [64, 128): every quantile interpolates inside
    // that bucket.
    EXPECT_GE(h.p50(), 64.0);
    EXPECT_LE(h.p99(), 128.0);
}

TEST(MetricRegistry, SourcesRepublishLiveStructs)
{
    MetricRegistry registry;
    runtime::MonitorStats stats;
    runtime::registerMonitorMetrics(registry, stats, "monitor");
    stats.checks = 7;
    stats.fastPass = 5;
    registry.collect();
    EXPECT_EQ(registry.counter("monitor.checks").value(), 7u);
    EXPECT_EQ(registry.counter("monitor.fast_pass").value(), 5u);
    // Struct mutates, collect() again sees the new totals.
    stats.checks = 9;
    registry.collect();
    EXPECT_EQ(registry.counter("monitor.checks").value(), 9u);
}

TEST(MetricRegistry, AllStatsStructsRegister)
{
    MetricRegistry registry;
    runtime::MonitorStats monitor;
    trace::IptStats ipt;
    runtime::registerMonitorMetrics(registry, monitor, "monitor");
    trace::registerIptMetrics(registry, ipt, "ipt");
    registry.collect();
    EXPECT_GT(registry.size(), 30u);
    EXPECT_EQ(registry.counter("monitor.checks").value(), 0u);
    EXPECT_EQ(registry.counter("ipt.tnt_packets").value(), 0u);
}

TEST(MetricRegistry, JsonIsSortedAndComplete)
{
    MetricRegistry registry;
    registry.counter("z.count").set(2);
    registry.counter("a.count").set(1);
    registry.gauge("m.ratio").set(0.5);
    registry.histogram("h.cycles").record(100);
    JsonWriter writer;
    registry.writeJson(writer);
    const std::string json = writer.str();
    // Sorted by name regardless of creation order.
    EXPECT_LT(json.find("\"a.count\":1"), json.find("\"z.count\":2"));
    EXPECT_NE(json.find("\"m.ratio\":0.5"), std::string::npos);
    EXPECT_NE(json.find("\"h.cycles\":{\"count\":1"),
              std::string::npos);
    EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(MetricRegistry, WriteBenchJsonShape)
{
    const std::string path =
        ::testing::TempDir() + "flowguard_bench_metrics_test.json";
    MetricRegistry registry;
    registry.counter("runs").set(3);
    telemetry::writeBenchJson(path, "unit", /*smoke=*/true, registry);

    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(contents.find("\"bench\":\"unit\""), std::string::npos);
    EXPECT_NE(contents.find("\"smoke\":true"), std::string::npos);
    EXPECT_NE(contents.find("\"runs\":3"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace

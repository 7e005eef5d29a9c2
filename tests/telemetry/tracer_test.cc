/**
 * @file
 * Unit tests for the telemetry hub: span lifecycle (nesting, async
 * completion, RAII wrapper), instants, flight-recorder rings, and the
 * JSONL and Chrome trace sinks; and the CreditCommit instant a
 * verdict-cache commit emits.
 */

#include <gtest/gtest.h>

#include "core/flowguard.hh"
#include "cpu/basic_kernel.hh"
#include "runtime/monitor.hh"
#include "telemetry/telemetry.hh"
#include "trace/ipt.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using telemetry::EventKind;
using telemetry::FlightEvent;
using telemetry::FlightRecorder;
using telemetry::SpanKind;
using telemetry::Telemetry;

TEST(Tracer, SpanNestsUnderInnermostOpenSpanOfSameCr3)
{
    Telemetry hub;
    telemetry::JsonlSink sink;
    hub.setSink(&sink);
    uint64_t t = 0;
    hub.setClock([&t] { return t; });

    const uint64_t trap = hub.beginSpan(SpanKind::Trap, 0x100, 1);
    t = 10;
    const uint64_t fast = hub.beginSpan(SpanKind::FastCheck, 0x100, 1);
    // A span for a different process does not nest under 0x100's.
    const uint64_t other = hub.beginSpan(SpanKind::Trap, 0x200, 9);
    t = 20;
    hub.endSpan(fast, /*verdict=*/1);
    t = 30;
    hub.endSpan(trap);
    hub.endSpan(other);

    const auto ring = hub.snapshotFlight(0x100);
    ASSERT_EQ(ring.size(), 2u);   // closed spans only, close order
    EXPECT_EQ(ring[0].span, SpanKind::FastCheck);
    EXPECT_EQ(ring[0].parent, trap);
    EXPECT_EQ(ring[0].begin, 10u);
    EXPECT_EQ(ring[0].end, 20u);
    EXPECT_EQ(ring[0].verdict, 1u);
    EXPECT_EQ(ring[1].span, SpanKind::Trap);
    EXPECT_EQ(ring[1].parent, 0u);

    const auto peer = hub.snapshotFlight(0x200);
    ASSERT_EQ(peer.size(), 1u);
    EXPECT_EQ(peer[0].parent, 0u);
}

TEST(Tracer, EndSpanOnUnknownIdIsIgnored)
{
    Telemetry hub;
    EXPECT_NO_THROW(hub.endSpan(12345));
    EXPECT_NO_THROW(hub.endSpan(0));
}

TEST(Tracer, CompleteSpanEmitsBoundedSpanWithoutOpenState)
{
    Telemetry hub;
    hub.completeSpan(SpanKind::SlowEscalate, 0x100, 7, 100, 250,
                     /*verdict=*/2, 0xABC, 0xDEF);
    const auto ring = hub.snapshotFlight(0x100);
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring[0].kind, EventKind::Span);
    EXPECT_EQ(ring[0].span, SpanKind::SlowEscalate);
    EXPECT_EQ(ring[0].seq, 7u);
    EXPECT_EQ(ring[0].begin, 100u);
    EXPECT_EQ(ring[0].end, 250u);
    EXPECT_EQ(ring[0].a, 0xABCu);
    EXPECT_EQ(ring[0].b, 0xDEFu);
}

TEST(Tracer, InstantStampsNow)
{
    Telemetry hub;
    uint64_t t = 42;
    hub.setClock([&t] { return t; });
    hub.instant(EventKind::Overflow, 0x100, 3, 512);
    const auto ring = hub.snapshotFlight(0x100);
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring[0].kind, EventKind::Overflow);
    EXPECT_EQ(ring[0].begin, 42u);
    EXPECT_EQ(ring[0].end, 42u);
    EXPECT_EQ(ring[0].a, 512u);
}

TEST(Tracer, ScopedSpanToleratesNullHub)
{
    // The producer pattern: a null hub must cost nothing and crash
    // nothing.
    telemetry::ScopedSpan span(nullptr, SpanKind::FastCheck, 1, 2);
    span.setVerdict(3);
    span.setPayload(4, 5);
    span.finish();
    SUCCEED();
}

TEST(Tracer, ScopedSpanClosesOnDestruction)
{
    Telemetry hub;
    {
        telemetry::ScopedSpan span(&hub, SpanKind::PmiCheck, 0x300);
        span.setVerdict(1);
    }
    const auto ring = hub.snapshotFlight(0x300);
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring[0].span, SpanKind::PmiCheck);
    EXPECT_EQ(ring[0].verdict, 1u);
    // finish() twice must not double-emit.
    {
        telemetry::ScopedSpan span(&hub, SpanKind::Barrier, 0x300);
        span.finish();
        span.finish();
    }
    EXPECT_EQ(hub.snapshotFlight(0x300).size(), 2u);
}

TEST(Tracer, CreditCommitCarriesTheCommitDelta)
{
    workloads::ServerSpec spec;
    spec.name = "commit";
    spec.seed = 23;
    spec.cr3 = 0x2300;
    const auto app = workloads::buildServerApp(spec);
    FlowGuardConfig config;
    config.pathSensitive = true;
    FlowGuard guard(app.program, config);
    guard.analyze();

    // The ring after a few requests: one window, committed twice.
    cpu::Cpu cpu(app.program);
    trace::Topa topa(config.topaRegions);
    trace::IptConfig ipt_config;
    ipt_config.cr3Filter = true;
    ipt_config.cr3Match = app.program.cr3();
    cpu::CycleAccount cycles;
    trace::IptEncoder encoder(ipt_config, topa, &cycles);
    cpu.addTraceSink(&encoder);
    cpu::BasicKernel kernel;
    kernel.setInput(workloads::makeBenignStream(
        6, 9, spec.numHandlers, spec.numParserStates));
    cpu.setSyscallHandler(&kernel);
    cpu.run(50'000'000);
    const auto view = topa.view();
    const std::vector<uint8_t> window(view.begin(), view.end());

    runtime::MonitorConfig monitor_config;
    monitor_config.autoCommitCache = false;
    runtime::Monitor monitor(app.program, guard.itc(), guard.ocfg(),
                             guard.typearmor(), monitor_config, &cycles,
                             guard.mutablePaths());
    Telemetry hub;
    monitor.setTelemetry(&hub, 0x2300);
    std::vector<std::pair<uint64_t, uint64_t>> observed;
    monitor.setCommitObserver(
        [&](const runtime::Monitor::CreditDelta &delta) {
            observed.emplace_back(delta.pairs.size(), delta.paths.size());
        });
    for (int commit = 0; commit < 2; ++commit) {
        ASSERT_EQ(monitor.slowPhase(window, /*loss=*/false),
                  runtime::CheckVerdict::Pass);
        monitor.commitCache();
    }

    std::vector<FlightEvent> commits;
    for (const auto &event : hub.snapshotFlight(0x2300))
        if (event.kind == EventKind::CreditCommit)
            commits.push_back(event);
    ASSERT_EQ(commits.size(), 2u);
    ASSERT_EQ(observed.size(), 1u);
    // a = the (edge, TNT) pairs the commit added, b = its n-grams.
    EXPECT_GT(commits[0].a, 0u);
    EXPECT_GT(commits[0].b, 0u);
    EXPECT_EQ(std::make_pair(commits[0].a, commits[0].b), observed[0]);
    // The same window again holds nothing new.
    EXPECT_EQ(commits[1].a, 0u);
    EXPECT_EQ(commits[1].b, 0u);
}

TEST(FlightRing, WrapsKeepingMostRecent)
{
    FlightRecorder ring;
    ASSERT_EQ(ring.capacity(), 64u);
    for (uint64_t i = 1; i <= 70; ++i) {
        FlightEvent event;
        event.kind = EventKind::CreditCommit;
        event.a = i;
        ring.push(event);
    }
    EXPECT_EQ(ring.size(), 64u);
    EXPECT_EQ(ring.pushed(), 70u);
    EXPECT_EQ(ring.dropped(), 6u);
    const auto events = ring.snapshot();
    ASSERT_EQ(events.size(), 64u);
    EXPECT_EQ(events.front().a, 7u);  // oldest survivor
    EXPECT_EQ(events.back().a, 70u);  // newest
}

TEST(Tracer, DumpRecorderReEmitsRingToSink)
{
    Telemetry hub;
    // Events recorded before any sink is attached...
    hub.instant(EventKind::Violation, 0x100, 1, 0xA, 0xB);
    hub.completeSpan(SpanKind::FastCheck, 0x100, 1, 0, 5);

    telemetry::JsonlSink sink;
    hub.setSink(&sink);
    const auto dump = hub.dumpRecorder(0x100);
    // ...still reach a late-attached sink through the dump.
    EXPECT_EQ(dump.size(), 2u);
    EXPECT_EQ(sink.events(), 2u);
    EXPECT_NE(sink.text().find("\"ev\":\"violation\""),
              std::string::npos);
}

TEST(Sinks, JsonlShapeIsCompactAndTagged)
{
    FlightEvent event;
    event.kind = EventKind::Span;
    event.span = SpanKind::FastDecode;
    event.id = 3;
    event.parent = 2;
    event.cr3 = 0xC0;
    event.seq = 5;
    event.begin = 10;
    event.end = 25;
    event.a = 4096;
    EXPECT_EQ(telemetry::JsonlSink::toJson(event),
              "{\"ev\":\"span\",\"span\":\"fast-decode\",\"id\":3,"
              "\"parent\":2,\"cr3\":192,\"seq\":5,\"begin\":10,"
              "\"end\":25,\"a\":4096}");
}

TEST(Sinks, ChromeTraceRendersSpansAndInstants)
{
    Telemetry hub;
    telemetry::ChromeTraceSink sink;
    hub.setSink(&sink);
    uint64_t t = 100;
    hub.setClock([&t] { return t; });

    const uint64_t span = hub.beginSpan(SpanKind::SlowCheck, 0x77, 4);
    t = 400;
    hub.endSpan(span, /*verdict=*/2);
    hub.instant(EventKind::Resync, 0x77, 4, 1, 64);

    const std::string doc = sink.render();
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"slow-check\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"dur\":300"), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"resync\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":119"), std::string::npos);
}

TEST(Sinks, NullSinkReportsDisabled)
{
    telemetry::NullSink null;
    EXPECT_FALSE(null.enabled());
    telemetry::JsonlSink jsonl;
    EXPECT_TRUE(jsonl.enabled());
}

} // namespace

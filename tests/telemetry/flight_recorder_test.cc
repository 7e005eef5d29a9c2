/**
 * @file
 * Flight-recorder acceptance tests (ISSUE): every conviction comes
 * with its black box.
 *
 *  - a CfiViolation raised by a real attack chain carries a
 *    non-empty flight snapshot that includes the violating edge's
 *    check span — with no telemetry configuration at all (the
 *    run-local hub is on by default);
 *  - a FailClosed TraceLoss conviction carries the loss story
 *    (overflow instants, the refusing check);
 *  - on an injected checker crash the supervisor dumps every
 *    process's ring (crashDumps) and stamps ProtectionGap reports
 *    with flight snapshots;
 *  - telemetryOff really disables the run-local hub;
 *  - every endpoint's Trap span carries its endpoint seq, inline and
 *    through the service.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "core/flowguard.hh"
#include "../recovery/recovery_fleet.hh"
#include "telemetry/telemetry.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using flowguard::test::RecoveryFleet;
using telemetry::EventKind;
using telemetry::FlightEvent;

bool
hasViolatingEdgeSpan(const std::vector<FlightEvent> &flight,
                     uint64_t from, uint64_t to)
{
    for (const auto &event : flight) {
        const bool violating_edge = event.a == from && event.b == to;
        if (event.kind == EventKind::Span && violating_edge &&
            event.verdict ==
                static_cast<uint8_t>(runtime::CheckVerdict::Violation))
            return true;
    }
    return false;
}

/** The seqs of the endpoint (Trap) spans in `flight`, oldest first. */
std::vector<uint64_t>
trapSeqs(const std::vector<FlightEvent> &flight)
{
    std::vector<uint64_t> seqs;
    for (const auto &event : flight) {
        if (event.kind == EventKind::Span &&
            event.span == telemetry::SpanKind::Trap)
            seqs.push_back(event.seq);
    }
    return seqs;
}

class FlightRecorderE2E : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workloads::ServerSpec spec =
            workloads::serverSuite(/*implant_vuln=*/true)[0];
        app = new workloads::SyntheticApp(
            workloads::buildServerApp(spec));
        catalog = new attacks::GadgetCatalog(
            attacks::scanGadgets(app->program));
        handlers = spec.numHandlers;
        states = spec.numParserStates;
    }

    static void
    TearDownTestSuite()
    {
        delete app;
        delete catalog;
        app = nullptr;
        catalog = nullptr;
    }

    static FlowGuard
    makeGuard(FlowGuardConfig config = {})
    {
        FlowGuard guard(app->program, config);
        guard.analyze();
        std::vector<fuzz::Input> corpus;
        for (uint64_t seed = 1; seed <= 6; ++seed)
            corpus.push_back(workloads::makeBenignStream(
                12, seed, handlers, states));
        guard.trainWithCorpus(corpus);
        return guard;
    }

    static workloads::SyntheticApp *app;
    static attacks::GadgetCatalog *catalog;
    static size_t handlers;
    static size_t states;
};

workloads::SyntheticApp *FlightRecorderE2E::app = nullptr;
attacks::GadgetCatalog *FlightRecorderE2E::catalog = nullptr;
size_t FlightRecorderE2E::handlers = 0;
size_t FlightRecorderE2E::states = 0;

TEST_F(FlightRecorderE2E, RopViolationCarriesFlightSnapshot)
{
    auto attack = attacks::buildRopWriteAttack(app->program, *catalog);
    FlowGuard guard = makeGuard();   // default config: run-local hub
    auto outcome = guard.run(attack.request);
    ASSERT_TRUE(outcome.attackDetected);
    ASSERT_FALSE(outcome.violations.empty());

    const auto &report = outcome.violations.front();
    ASSERT_EQ(report.kind, runtime::ViolationReport::Kind::CfiViolation);
    ASSERT_FALSE(report.flight.empty())
        << "conviction must carry its flight recorder";
    EXPECT_TRUE(hasViolatingEdgeSpan(report.flight, report.from,
                                     report.to))
        << "flight must include the check span that convicted "
        << std::hex << report.from << " -> " << report.to;

    // The convicting endpoint's Trap span closes after the report is
    // filed, so it is read from an external hub: inline, it carries
    // the report's seq and the verdict.
    telemetry::Telemetry hub;
    FlowGuardConfig traced_config;
    traced_config.telemetry = &hub;
    FlowGuard traced = makeGuard(traced_config);
    const auto again = traced.run(attack.request);
    ASSERT_FALSE(again.violations.empty());
    const auto ring = hub.snapshotFlight(app->program.cr3());
    const auto trap = std::find_if(
        ring.rbegin(), ring.rend(), [](const FlightEvent &event) {
            return event.kind == EventKind::Span &&
                event.span == telemetry::SpanKind::Trap;
        });
    ASSERT_NE(trap, ring.rend());
    EXPECT_EQ(trap->seq, again.violations.front().seq);
    EXPECT_GT(trap->seq, 0u);
    EXPECT_EQ(trap->verdict,
              static_cast<uint8_t>(runtime::CheckVerdict::Violation));
}

TEST_F(FlightRecorderE2E, SropViolationCarriesFlightSnapshot)
{
    auto attack = attacks::buildSropAttack(app->program, *catalog);
    FlowGuard guard = makeGuard();
    auto outcome = guard.run(attack.request);
    ASSERT_TRUE(outcome.attackDetected);
    ASSERT_FALSE(outcome.violations.empty());
    const auto &report = outcome.violations.front();
    ASSERT_FALSE(report.flight.empty());
    EXPECT_TRUE(hasViolatingEdgeSpan(report.flight, report.from,
                                     report.to));
}

TEST_F(FlightRecorderE2E, TraceLossConvictionCarriesLossStory)
{
    FlowGuardConfig config;
    config.pmiChecking = true;
    config.topaRegions = {2048, 2048};
    config.pmiServiceLatencyBytes = 512;
    config.lossPolicy = runtime::LossPolicy::FailClosed;
    FlowGuard guard = makeGuard(config);
    auto outcome =
        guard.run(workloads::makeBenignStream(8, 40, handlers, states));
    ASSERT_TRUE(outcome.attackDetected);
    ASSERT_FALSE(outcome.violations.empty());
    const auto &report = outcome.violations.front();
    ASSERT_EQ(report.kind, runtime::ViolationReport::Kind::TraceLoss);
    ASSERT_FALSE(report.flight.empty());
    bool saw_overflow = false;
    for (const auto &event : report.flight)
        if (event.kind == EventKind::Overflow)
            saw_overflow = true;
    EXPECT_TRUE(saw_overflow)
        << "a loss conviction's flight must show the OVF episode";
}

TEST_F(FlightRecorderE2E, TelemetryOffDisablesTheRunLocalHub)
{
    auto attack = attacks::buildRopWriteAttack(app->program, *catalog);
    FlowGuardConfig config;
    config.telemetryOff = true;
    FlowGuard guard = makeGuard(config);
    auto outcome = guard.run(attack.request);
    ASSERT_TRUE(outcome.attackDetected);
    ASSERT_FALSE(outcome.violations.empty());
    EXPECT_TRUE(outcome.violations.front().flight.empty());
}

TEST(FlightRecorderCrash, SupervisorDumpsRingsAndStampsGapReports)
{
    workloads::ServerSpec spec;
    spec.name = "svc";
    spec.numHandlers = 4;
    spec.numParserStates = 2;
    spec.numFillerFuncs = 16;
    spec.fillerTableSlots = 6;
    spec.workPerRequest = 20;
    spec.implantVuln = true;
    spec.seed = 7;
    spec.cr3 = 0xF000;
    workloads::SyntheticApp app(workloads::buildServerApp(spec));

    FlowGuardConfig gconfig;
    gconfig.topaRegions = {4096, 4096};
    FlowGuard guard(app.program, gconfig);
    guard.analyze();
    std::vector<fuzz::Input> corpus;
    for (uint64_t seed = 1; seed <= 4; ++seed)
        corpus.push_back(workloads::makeBenignStream(12, seed, 4, 2));
    guard.trainWithCorpus(corpus);

    runtime::ServiceConfig sconfig;
    sconfig.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    recovery::RecoveryConfig rconfig;
    rconfig.policy = recovery::RecoveryPolicy::ResyncAndAudit;
    rconfig.heartbeatIntervalCycles = 500;
    rconfig.missedHeartbeatsToDeclareDead = 2;
    rconfig.restartLatencyCycles = 1'500;
    trace::ControlFaultPlan plan;
    plan.monitorCrashAtCycle = 4'000;

    RecoveryFleet fleet(
        guard, sconfig, rconfig, plan, 101,
        [&](size_t i) {
            auto s = spec;
            s.cr3 = 0xF000 + i;
            return workloads::buildServerApp(s);
        },
        {workloads::makeBenignStream(20, 11, 4, 2),
         workloads::makeBenignStream(20, 12, 4, 2)});

    telemetry::Telemetry hub;
    fleet.service.setTelemetry(&hub);
    fleet.supervisor.setTelemetry(&hub);
    for (auto &kernel : fleet.kernels)
        kernel->attachTelemetry(&hub);
    fleet.run();

    ASSERT_EQ(fleet.supervisor.stats().crashes, 1u);
    ASSERT_EQ(fleet.supervisor.stats().restarts, 1u);

    // The crash dumped each process's ring — the black box of the
    // outage — before post-crash traffic could push it out.
    const auto &dumps = fleet.supervisor.crashDumps();
    ASSERT_FALSE(dumps.empty());
    for (const auto &[cr3, events] : dumps)
        EXPECT_FALSE(events.empty())
            << "empty crash dump for cr3 " << std::hex << cr3;

    // The restart reported the gap, and the report carries flight.
    bool gap_seen = false;
    for (const auto &report : fleet.supervisor.reports()) {
        if (report.kind !=
            runtime::ViolationReport::Kind::ProtectionGap)
            continue;
        gap_seen = true;
        EXPECT_FALSE(report.flight.empty())
            << "gap report must carry a flight snapshot";
    }
    EXPECT_TRUE(gap_seen);

    // The crash itself is in the stream.
    const auto ring = hub.snapshotFlight(0);
    bool crash_seen = false;
    bool restart_seen = false;
    for (const auto &event : ring) {
        crash_seen |= event.kind == EventKind::CheckerCrash;
        restart_seen |= event.kind == EventKind::CheckerRestart;
    }
    EXPECT_TRUE(crash_seen);
    EXPECT_TRUE(restart_seen);

    // Through the service, every endpoint's Trap span carries the seq
    // the service gave it: consecutive, never the 0 of "no endpoint".
    for (size_t i = 0; i < fleet.kernels.size(); ++i) {
        const auto seqs = trapSeqs(hub.snapshotFlight(fleet.cr3(i)));
        ASSERT_FALSE(seqs.empty());
        EXPECT_GT(seqs.front(), 0u);
        for (size_t k = 1; k < seqs.size(); ++k)
            EXPECT_EQ(seqs[k], seqs[k - 1] + 1);
    }
}

} // namespace

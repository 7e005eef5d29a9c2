/**
 * @file
 * Watchdog + warm-restart integration tests: injected checker
 * crashes and hangs against a protected fleet.
 *
 * The contract under test:
 *  - a scheduled MonitorCrash/MonitorHang is detected by missed
 *    heartbeats and warm-restarted; nobody benign dies for it;
 *  - the unchecked window is *reported* (ProtectionGap with cycle
 *    bounds) and *accounted* (the ledger identity holds exactly);
 *  - a torn journal tail (crash mid-append) is truncated, never
 *    replayed past;
 *  - RecoveryPolicy semantics: FailClosed freezes (zero-width gap on
 *    the virtual clock, modeled frozen cycles), ResyncAndAudit
 *    replays credit and forces the first post-resync window slow,
 *    ColdRestart drops replayed credit;
 *  - satellite S2: a verdict committed before the crash but not yet
 *    delivered is re-queued exactly once; one already delivered is
 *    suppressed by the journal dedup — never lost, never doubled;
 *  - journal compaction folds into a loadable snapshot.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "recovery_fleet.hh"

namespace {

using namespace flowguard;
using namespace flowguard::runtime;
using namespace flowguard::recovery;
using flowguard::test::RecoveryFleet;

constexpr uint64_t base_cr3 = 0xB000;

workloads::ServerSpec
fleetSpec(uint64_t cr3)
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
    spec.cr3 = cr3;
    return spec;
}

RecoveryFleet::AppBuilder
serverApps()
{
    return [](size_t i) {
        return workloads::buildServerApp(fleetSpec(base_cr3 + i));
    };
}

std::vector<uint8_t>
benign(uint64_t seed, size_t requests = 20)
{
    return workloads::makeBenignStream(requests, seed, 4, 2);
}

/**
 * Watchdog clock scaled to the fleet's real virtual-cycle budget (a
 * 2-3 process benign run retires ~11-16k cycles total): detect one
 * missed-heartbeat window after the crash, back up 1.5k later.
 */
RecoveryConfig
quickRecovery(RecoveryPolicy policy)
{
    RecoveryConfig config;
    config.policy = policy;
    config.heartbeatIntervalCycles = 500;
    config.missedHeartbeatsToDeclareDead = 2;
    config.restartLatencyCycles = 1'500;
    return config;
}

trace::ControlFaultPlan
crashPlan(uint64_t at, bool torn = false)
{
    trace::ControlFaultPlan plan;
    plan.monitorCrashAtCycle = at;
    plan.tornJournalOnCrash = torn;
    return plan;
}

class Watchdog : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        app = new workloads::SyntheticApp(
            workloads::buildServerApp(fleetSpec(base_cr3)));
    }

    static void
    TearDownTestSuite()
    {
        delete app;
        app = nullptr;
    }

    static FlowGuard
    guardFor(bool train)
    {
        FlowGuardConfig config;
        config.topaRegions = {4096, 4096};
        FlowGuard guard(app->program, config);
        guard.analyze();
        if (train) {
            std::vector<fuzz::Input> corpus;
            for (uint64_t seed = 1; seed <= 4; ++seed)
                corpus.push_back(
                    workloads::makeBenignStream(12, seed, 4, 2));
            guard.trainWithCorpus(corpus);
        }
        return guard;
    }

    static workloads::SyntheticApp *app;
};

workloads::SyntheticApp *Watchdog::app = nullptr;

TEST_F(Watchdog, CrashIsDetectedAndWarmRestarted)
{
    FlowGuard guard = guardFor(/*train=*/true);
    ServiceConfig sconfig;
    sconfig.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    RecoveryFleet fleet(guard, sconfig,
                        quickRecovery(RecoveryPolicy::ResyncAndAudit),
                        crashPlan(4'000), 101, serverApps(),
                        {benign(11), benign(12), benign(13)});
    fleet.run();

    const auto &stats = fleet.supervisor.stats();
    EXPECT_EQ(stats.crashes, 1u);
    EXPECT_EQ(stats.restarts, 1u);
    EXPECT_GE(stats.heartbeatsMissed, 2u);
    EXPECT_GT(stats.downtimeCycles, 0u);
    EXPECT_GT(stats.gapEndpoints, 0u);
    EXPECT_GT(stats.journalAppends, 0u);
    EXPECT_GT(stats.forcedSlowWindows, 0u);
    EXPECT_GT(stats.catchUpChecks, 0u);
    EXPECT_GT(fleet.service.stats().gapSkipped, 0u);

    // Nobody benign dies for a checker crash, the gap is reported
    // with real bounds, and every cycle is accounted to one class.
    EXPECT_EQ(fleet.totalKills(), 0u);
    bool gap_seen = false;
    for (const auto &report : fleet.supervisor.reports())
        if (report.kind == ViolationReport::Kind::ProtectionGap) {
            gap_seen = true;
            EXPECT_GT(report.to, report.from)
                << "gap report must bound a real window";
        }
    EXPECT_TRUE(gap_seen);
    EXPECT_TRUE(fleet.ledgerIdentityHolds());
    EXPECT_GT(fleet.supervisor.ledger().totals().gap, 0u);
    EXPECT_GT(fleet.supervisor.ledger().totals().checked, 0u);
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(Watchdog, HangIsDetectedLikeACrashButTearsNothing)
{
    FlowGuard guard = guardFor(/*train=*/true);
    ServiceConfig sconfig;
    sconfig.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    trace::ControlFaultPlan plan;
    plan.monitorHangAtCycle = 4'000;
    plan.tornJournalOnCrash = true;     // must not apply to a hang
    RecoveryFleet fleet(guard, sconfig,
                        quickRecovery(RecoveryPolicy::ResyncAndAudit),
                        plan, 102, serverApps(),
                        {benign(21), benign(22)});
    fleet.run();

    const auto &stats = fleet.supervisor.stats();
    EXPECT_EQ(stats.hangs, 1u);
    EXPECT_EQ(stats.crashes, 0u);
    EXPECT_EQ(stats.restarts, 1u);
    // A hung checker is killed by the watchdog, not torn mid-write.
    EXPECT_EQ(stats.tornTailBytes, 0u);
    EXPECT_EQ(fleet.totalKills(), 0u);
    EXPECT_TRUE(fleet.ledgerIdentityHolds());
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(Watchdog, TornJournalTailIsTruncatedAndSurvived)
{
    FlowGuard guard = guardFor(/*train=*/true);
    ServiceConfig sconfig;
    sconfig.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    RecoveryFleet fleet(guard, sconfig,
                        quickRecovery(RecoveryPolicy::ResyncAndAudit),
                        crashPlan(5'000, /*torn=*/true), 103,
                        serverApps(), {benign(31), benign(32)});
    fleet.run();

    const auto &stats = fleet.supervisor.stats();
    EXPECT_EQ(stats.crashes, 1u);
    EXPECT_EQ(stats.restarts, 1u);
    EXPECT_GT(stats.tornTailBytes, 0u);
    EXPECT_EQ(fleet.totalKills(), 0u);
    EXPECT_TRUE(fleet.ledgerIdentityHolds());
    // The journal healed: post-restart appends read back cleanly.
    const auto read = readJournal(fleet.supervisor.journal().bytes());
    EXPECT_EQ(read.status, ProfileLoadResult::Status::Ok);
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(Watchdog, FailClosedFreezesInsteadOfRunningUnchecked)
{
    FlowGuard guard = guardFor(/*train=*/true);
    ServiceConfig sconfig;
    sconfig.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    auto rconfig = quickRecovery(RecoveryPolicy::FailClosed);
    RecoveryFleet fleet(guard, sconfig, rconfig, crashPlan(4'000),
                        104, serverApps(), {benign(41), benign(42)});
    fleet.run();

    const auto &stats = fleet.supervisor.stats();
    EXPECT_EQ(stats.crashes, 1u);
    EXPECT_EQ(stats.restarts, 1u);
    // The restart-latency window is a modeled freeze, not a gap: on
    // the virtual clock only the detection window ran unchecked.
    EXPECT_EQ(stats.frozenCycles, rconfig.restartLatencyCycles);
    EXPECT_EQ(stats.forcedSlowWindows, 0u);
    EXPECT_EQ(fleet.totalKills(), 0u);
    EXPECT_TRUE(fleet.ledgerIdentityHolds());
    const auto resync = fleet.supervisor.ledger().totals();
    // FailClosed's whole point: the gap is bounded by the detection
    // latency, never extended by the restart work.
    EXPECT_LE(resync.gap,
              rconfig.heartbeatIntervalCycles *
                      rconfig.missedHeartbeatsToDeclareDead +
                  stats.downtimeCycles);
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(Watchdog, ResyncReplaysCreditAndColdRestartDropsIt)
{
    // Untrained guard + generous deadline: every endpoint escalates,
    // passes on the slow path, and commits verdict-cache credit —
    // giving the journal real CreditCommit records before the crash.
    ServiceConfig sconfig;
    sconfig.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    sconfig.breakerThreshold = 1'000'000;

    FlowGuard warm_guard = guardFor(/*train=*/false);
    RecoveryFleet warm(warm_guard, sconfig,
                       quickRecovery(RecoveryPolicy::ResyncAndAudit),
                       crashPlan(6'000), 105, serverApps(),
                       {benign(51), benign(52)});
    warm.run();
    EXPECT_EQ(warm.supervisor.stats().restarts, 1u);
    EXPECT_GT(warm.supervisor.stats().replayedCreditCommits, 0u);
    EXPECT_GT(warm.supervisor.stats().replayedTransitions, 0u);
    EXPECT_EQ(warm.supervisor.stats().creditDroppedCold, 0u);
    EXPECT_EQ(warm.totalKills(), 0u);
    EXPECT_TRUE(warm.ledgerIdentityHolds());
    warm_guard.itc().clearRuntime();

    FlowGuard cold_guard = guardFor(/*train=*/false);
    RecoveryFleet cold(cold_guard, sconfig,
                       quickRecovery(RecoveryPolicy::ColdRestart),
                       crashPlan(6'000), 105, serverApps(),
                       {benign(51), benign(52)});
    cold.run();
    EXPECT_EQ(cold.supervisor.stats().restarts, 1u);
    EXPECT_GT(cold.supervisor.stats().creditDroppedCold, 0u);
    EXPECT_EQ(cold.supervisor.stats().replayedTransitions, 0u);
    EXPECT_EQ(cold.totalKills(), 0u);
    EXPECT_TRUE(cold.ledgerIdentityHolds());
    EXPECT_TRUE(cold.service.accountingBalances());
}

TEST_F(Watchdog, CheckerDeadAtDrainReportsTheOpenGap)
{
    FlowGuard guard = guardFor(/*train=*/true);
    ServiceConfig sconfig;
    sconfig.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    auto rconfig = quickRecovery(RecoveryPolicy::ResyncAndAudit);
    rconfig.restartLatencyCycles = 1'000'000'000'000ULL;    // never up
    RecoveryFleet fleet(guard, sconfig, rconfig, crashPlan(5'000),
                        106, serverApps(), {benign(61), benign(62)});
    fleet.run();

    EXPECT_EQ(fleet.supervisor.stats().crashes, 1u);
    EXPECT_EQ(fleet.supervisor.stats().restarts, 0u);
    EXPECT_FALSE(fleet.supervisor.checkerAlive());
    // The run ended inside the gap: it is still reported, per
    // process, and the accounting still places every cycle.
    for (size_t i = 0; i < 2; ++i)
        EXPECT_TRUE(fleet.gapReported(i)) << "process " << i;
    EXPECT_TRUE(fleet.ledgerIdentityHolds());
    EXPECT_GT(fleet.supervisor.ledger().totals().gap, 0u);
    EXPECT_EQ(fleet.totalKills(), 0u);
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(Watchdog, CommittedUndeliveredVerdictIsRequeuedExactlyOnce)
{
    // Satellite S2, deterministic half: the crash lands between
    // verdict commit (journaled at queue time) and delivery. Replay
    // must re-queue the kill exactly once.
    FlowGuard guard = guardFor(/*train=*/true);
    RecoveryFleet fleet(guard, ServiceConfig{},
                        quickRecovery(RecoveryPolicy::ResyncAndAudit),
                        crashPlan(1), 107, serverApps(),
                        {benign(71)});
    fleet.service.attachAll();
    const uint64_t cr3 = fleet.cr3(0);

    ViolationReport committed;
    committed.kind = ViolationReport::Kind::CfiViolation;
    committed.cr3 = cr3;
    committed.seq = 1;
    committed.syscall = 1;
    committed.reason = "pre-crash deferred kill";
    fleet.supervisor.noteVerdictCommitted(committed);

    // Endpoint at cycle 10: the scheduled crash fires; the pending
    // kill is wiped with the checker's memory.
    EXPECT_EQ(fleet.supervisor.gateEndpoint(cr3, 1, 10),
              RecoveryHooks::Gate::SkipUnchecked);
    EXPECT_EQ(fleet.supervisor.stats().crashes, 1u);

    // Far later: the restart replays the journal and re-queues.
    EXPECT_EQ(fleet.supervisor.gateEndpoint(cr3, 2, 10'000'000),
              RecoveryHooks::Gate::Proceed);
    EXPECT_EQ(fleet.supervisor.stats().requeuedVerdicts, 1u);
    EXPECT_EQ(fleet.service.stats().requeuedKills, 1u);

    ViolationReport out;
    ASSERT_TRUE(fleet.service.consumePendingKill(cr3, out));
    EXPECT_EQ(out.kind, ViolationReport::Kind::CfiViolation);
    EXPECT_EQ(out.seq, 1u);
    EXPECT_EQ(out.reason, "pre-crash deferred kill");
    EXPECT_FALSE(fleet.service.consumePendingKill(cr3, out))
        << "the kill must be re-queued once, not duplicated";
}

TEST_F(Watchdog, DeliveredVerdictIsNeverRedelivered)
{
    // Satellite S2, other half: commit AND delivery both made the
    // journal; replay must suppress the commit — one verdict, one
    // kill, ever.
    FlowGuard guard = guardFor(/*train=*/true);
    RecoveryFleet fleet(guard, ServiceConfig{},
                        quickRecovery(RecoveryPolicy::ResyncAndAudit),
                        crashPlan(1), 108, serverApps(),
                        {benign(81)});
    fleet.service.attachAll();
    const uint64_t cr3 = fleet.cr3(0);

    ViolationReport committed;
    committed.kind = ViolationReport::Kind::CfiViolation;
    committed.cr3 = cr3;
    committed.seq = 4;
    fleet.supervisor.noteVerdictCommitted(committed);
    fleet.supervisor.noteVerdictDelivered(cr3, 4);

    EXPECT_EQ(fleet.supervisor.gateEndpoint(cr3, 5, 10),
              RecoveryHooks::Gate::SkipUnchecked);
    EXPECT_EQ(fleet.supervisor.gateEndpoint(cr3, 6, 10'000'000),
              RecoveryHooks::Gate::Proceed);

    EXPECT_EQ(fleet.supervisor.stats().requeuedVerdicts, 0u);
    EXPECT_GE(fleet.supervisor.stats().dedupSuppressed, 1u);
    ViolationReport out;
    EXPECT_FALSE(fleet.service.consumePendingKill(cr3, out));
}

TEST_F(Watchdog, CompactionFoldsJournalIntoLoadableSnapshot)
{
    FlowGuard guard = guardFor(/*train=*/true);
    ServiceConfig sconfig;
    sconfig.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    auto rconfig = quickRecovery(RecoveryPolicy::ResyncAndAudit);
    rconfig.compactEveryRecords = 8;
    rconfig.snapshotPath = "recovery_compact_snapshot.bin";
    RecoveryFleet fleet(guard, sconfig, rconfig,
                        trace::ControlFaultPlan{}, 109, serverApps(),
                        {benign(91), benign(92)});
    fleet.run();

    const auto &stats = fleet.supervisor.stats();
    EXPECT_EQ(stats.crashes, 0u);
    EXPECT_GT(stats.compactions, 0u);
    EXPECT_GT(stats.snapshotBytes, 0u);
    // The in-memory snapshot and the atomically persisted copy both
    // load back Ok.
    const auto loaded =
        loadSnapshot(fleet.supervisor.snapshotBytes());
    EXPECT_EQ(loaded.status, ProfileLoadResult::Status::Ok);
    std::ifstream in(rconfig.snapshotPath, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::vector<uint8_t> disk(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(loadSnapshot(disk).status,
              ProfileLoadResult::Status::Ok);
    std::remove(rconfig.snapshotPath.c_str());

    EXPECT_EQ(fleet.totalKills(), 0u);
    EXPECT_TRUE(fleet.ledgerIdentityHolds());
    EXPECT_TRUE(fleet.service.accountingBalances());
}

} // namespace

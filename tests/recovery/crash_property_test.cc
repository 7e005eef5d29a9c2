/**
 * @file
 * The crash-recovery acceptance property, over 200+ seeded crash
 * points (including torn-journal / mid-append crashes and crashes
 * observed at dlclose barriers of a module-churning fleet):
 *
 *   A warm-restarted ResyncAndAudit run produces the same
 *   enforcement outcomes as the never-crashed run — modulo the
 *   ProtectionGap windows it reports — and the no-silent-gap cycle
 *   identity (checked + deferred + lossy + gap == cycles retired)
 *   holds exactly, in every single run.
 *
 * Concretely, per crash point:
 *  - a benign fleet is NEVER killed because its checker died
 *    (recovery must not manufacture convictions: replayed credit,
 *    catch-up checks and forced-slow windows are all benign-safe);
 *  - the supervisor's extra reports are only gap bounds and
 *    audit-class catch-up observations — never enforcement;
 *  - a planted attack is still detected: inline/deferred when its
 *    window had a live checker, as an audit-class catch-up
 *    conviction when it ran inside the gap;
 *  - the ledger identity holds to the cycle, and the scheduler's
 *    no-silent-drop accounting balances (lostToCrash included).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "recovery_fleet.hh"

namespace {

using namespace flowguard;
using namespace flowguard::runtime;
using namespace flowguard::recovery;
using flowguard::test::benignFleetGuard;
using flowguard::test::benignFleetSpec;
using flowguard::test::churnFleetGuard;
using flowguard::test::churnFleetSpec;
using flowguard::test::Outcome;
using flowguard::test::RecoveryFleet;

constexpr uint64_t server_cr3 = 0xB000;
constexpr uint64_t plugin_cr3 = 0x6000;

ServiceConfig
calmService()
{
    ServiceConfig config;
    config.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    config.breakerThreshold = 1'000'000;
    return config;
}

/**
 * Watchdog clock scaled to the fleets' real virtual-cycle budgets
 * (a two-process benign run retires ~4-11k cycles total): a crash
 * is declared dead 600 cycles later and back up 600 after that, so
 * most crash points get a full crash → detect → warm-restart →
 * catch-up cycle inside the run; the latest ones exercise the
 * still-down-at-drain path instead.
 */
RecoveryConfig
quickRecovery()
{
    RecoveryConfig config;
    config.policy = RecoveryPolicy::ResyncAndAudit;
    config.heartbeatIntervalCycles = 300;
    config.missedHeartbeatsToDeclareDead = 2;
    config.restartLatencyCycles = 600;
    config.compactEveryRecords = 64;
    return config;
}

class CrashProperty : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        server_app = new workloads::SyntheticApp(
            workloads::buildServerApp(benignFleetSpec(server_cr3)));
        plugin_app = new workloads::SyntheticApp(
            workloads::buildPluginServerApp(churnFleetSpec(plugin_cr3)));
        catalog = new attacks::GadgetCatalog(
            attacks::scanGadgets(server_app->program));
        server_guard = benignFleetGuard(*server_app, 4).release();
        plugin_guard = churnFleetGuard(*plugin_app, plugin_cr3, 4).release();
    }

    static void
    TearDownTestSuite()
    {
        delete plugin_guard;
        delete server_guard;
        delete catalog;
        delete plugin_app;
        delete server_app;
        plugin_guard = nullptr;
        server_guard = nullptr;
        catalog = nullptr;
        plugin_app = nullptr;
        server_app = nullptr;
    }

    static RecoveryFleet::AppBuilder
    serverApps()
    {
        return [](size_t i) {
            return workloads::buildServerApp(
                benignFleetSpec(server_cr3 + i));
        };
    }

    static RecoveryFleet::AppBuilder
    pluginApps()
    {
        return [](size_t i) {
            return workloads::buildPluginServerApp(
                churnFleetSpec(plugin_cr3 + 0x100 * i));
        };
    }

    /** Only gap bounds and audit-class catch-up observations may
     *  come out of the supervisor — never an enforcement report. */
    static void
    expectSupervisorReportsAreGapOnly(const RecoveryFleet &fleet,
                                      uint64_t crash_at)
    {
        for (const auto &report : fleet.supervisor.reports()) {
            const bool gap = report.kind ==
                ViolationReport::Kind::ProtectionGap;
            const bool catch_up =
                report.reason.find("catch-up, audit-only") !=
                std::string::npos;
            EXPECT_TRUE(gap || catch_up)
                << "crash@" << crash_at << ": supervisor emitted "
                << violationKindName(report.kind) << ": "
                << report.reason;
            if (gap) {
                EXPECT_GE(report.to, report.from);
            }
        }
    }

    static workloads::SyntheticApp *server_app;
    static workloads::SyntheticApp *plugin_app;
    static attacks::GadgetCatalog *catalog;
    static FlowGuard *server_guard;
    static FlowGuard *plugin_guard;
};

workloads::SyntheticApp *CrashProperty::server_app = nullptr;
workloads::SyntheticApp *CrashProperty::plugin_app = nullptr;
attacks::GadgetCatalog *CrashProperty::catalog = nullptr;
FlowGuard *CrashProperty::server_guard = nullptr;
FlowGuard *CrashProperty::plugin_guard = nullptr;

TEST_F(CrashProperty, BenignFleet120CrashPoints)
{
    const std::vector<std::vector<uint8_t>> inputs = {
        workloads::makeBenignStream(20, 11, 4, 2),
        workloads::makeBenignStream(20, 12, 4, 2),
    };

    // The never-crashed reference: same fleet, same supervisor
    // wiring, no faults.
    RecoveryFleet baseline(*server_guard, calmService(),
                           quickRecovery(),
                           trace::ControlFaultPlan{}, 1,
                           serverApps(), inputs);
    baseline.run(20'000'000);
    const std::set<Outcome> expected =
        baseline.enforcementOutcomes();
    EXPECT_TRUE(expected.empty());
    EXPECT_TRUE(baseline.ledgerIdentityHolds());
    server_guard->itc().clearRuntime();

    int crashed_runs = 0;
    int restarted_runs = 0;
    int torn_runs = 0;
    for (int point = 0; point < 120; ++point) {
        // ~11k cycles of run: points span the whole of it, a few
        // past the end (a crash that never fires is the degenerate
        // boundary case and must change nothing).
        const uint64_t crash_at = 400 + 85ULL * point;
        trace::ControlFaultPlan plan;
        plan.monitorCrashAtCycle = crash_at;
        plan.tornJournalOnCrash = point % 3 == 0;   // mid-append
        RecoveryFleet fleet(*server_guard, calmService(),
                            quickRecovery(), plan,
                            1'000 + point, serverApps(), inputs);
        fleet.run(20'000'000);

        // Same enforcement stream as the never-crashed run, modulo
        // the reported gap windows (benign: none, ever — a checker
        // crash must not manufacture a conviction).
        ASSERT_EQ(fleet.enforcementOutcomes(), expected)
            << "crash@" << crash_at;
        ASSERT_EQ(fleet.totalKills(), 0u) << "crash@" << crash_at;
        expectSupervisorReportsAreGapOnly(fleet, crash_at);

        // The cycle identity holds exactly, crash or no crash.
        ASSERT_TRUE(fleet.ledgerIdentityHolds())
            << "crash@" << crash_at;
        ASSERT_TRUE(fleet.service.accountingBalances())
            << "crash@" << crash_at;
        if (fleet.supervisor.stats().crashes != 0 &&
            fleet.supervisor.stats().restarts != 0) {
            ASSERT_GT(fleet.supervisor.ledger().totals().gap, 0u)
                << "crash@" << crash_at
                << ": a survived crash must account a gap";
        }
        crashed_runs += fleet.supervisor.stats().crashes != 0;
        restarted_runs += fleet.supervisor.stats().restarts != 0;
        torn_runs += fleet.supervisor.stats().tornTailBytes != 0;

        // The shared trained graph must enter every run cold.
        server_guard->itc().clearRuntime();
    }

    // The sweep must not be vacuous: the crash actually fired in
    // nearly every run, most runs warm-restarted (the latest points
    // exercise still-down-at-drain instead), and a healthy share of
    // crashes really tore the journal mid-append.
    EXPECT_GE(crashed_runs, 100);
    EXPECT_GE(restarted_runs, 80);
    EXPECT_GE(torn_runs, 20);
}

TEST_F(CrashProperty, ModuleChurnFleet60CrashPoints)
{
    // Plugin fleet: dlopen/dlclose churn means crash points land at
    // (and around) code-unload barriers, and replay must never
    // restore credit onto a range retired before or during the gap.
    const std::vector<std::vector<uint8_t>> inputs = {
        workloads::makePluginStream(12, 21, churnFleetSpec(plugin_cr3)),
        workloads::makePluginStream(12, 22, churnFleetSpec(plugin_cr3)),
    };

    RecoveryFleet baseline(*plugin_guard, calmService(),
                           quickRecovery(),
                           trace::ControlFaultPlan{}, 2,
                           pluginApps(), inputs);
    baseline.run(20'000'000);
    const std::set<Outcome> expected =
        baseline.enforcementOutcomes();
    EXPECT_TRUE(expected.empty());
    EXPECT_GT(baseline.service.stats().barrierChecks, 0u)
        << "the workload must actually exercise unload barriers";

    int crashed_runs = 0;
    int restarted_runs = 0;
    for (int point = 0; point < 60; ++point) {
        // ~5-6k cycles of dlopen/dlclose-heavy run; the dense spread
        // lands crash observations on unload-barrier gates too.
        const uint64_t crash_at = 300 + 85ULL * point;
        trace::ControlFaultPlan plan;
        plan.monitorCrashAtCycle = crash_at;
        plan.tornJournalOnCrash = point % 3 == 1;
        RecoveryFleet fleet(*plugin_guard, calmService(),
                            quickRecovery(), plan,
                            2'000 + point, pluginApps(), inputs);
        fleet.run(20'000'000);

        ASSERT_EQ(fleet.enforcementOutcomes(), expected)
            << "crash@" << crash_at;
        ASSERT_EQ(fleet.totalKills(), 0u) << "crash@" << crash_at;
        expectSupervisorReportsAreGapOnly(fleet, crash_at);
        ASSERT_TRUE(fleet.ledgerIdentityHolds())
            << "crash@" << crash_at;
        ASSERT_TRUE(fleet.service.accountingBalances())
            << "crash@" << crash_at;
        crashed_runs += fleet.supervisor.stats().crashes != 0;
        restarted_runs += fleet.supervisor.stats().restarts != 0;
    }
    EXPECT_GE(crashed_runs, 40);
    EXPECT_GE(restarted_runs, 25);
}

TEST_F(CrashProperty, AttackStillDetectedAcross24CrashPoints)
{
    // One benign process, one under attack. Baseline: the ROP chain
    // is convicted at its endpoint. Crashed runs: the conviction
    // survives warm restart — as the same enforcement outcome when
    // the window had a live checker, or as an audit-class catch-up
    // conviction when the chain ran inside the gap. Either way the
    // benign neighbor is never harmed.
    const auto attack =
        attacks::buildRopWriteAttack(server_app->program, *catalog);
    // The long benign neighbor keeps the machine running well past
    // the attack, so every crash point below warm-restarts in time
    // for the catch-up check to see the attacked trace.
    const std::vector<std::vector<uint8_t>> inputs = {
        workloads::makeBenignStream(40, 31, 4, 2),
        attack.request,
    };

    RecoveryFleet baseline(*server_guard, calmService(),
                           quickRecovery(),
                           trace::ControlFaultPlan{}, 3,
                           serverApps(), inputs);
    baseline.run(20'000'000);
    EXPECT_TRUE(baseline.detected(
        1, ViolationReport::Kind::CfiViolation));
    EXPECT_EQ(baseline.kernels[0]->kills(), 0u);
    server_guard->itc().clearRuntime();

    int audited_runs = 0;
    int enforced_runs = 0;
    for (int point = 0; point < 24; ++point) {
        // Early points land before/inside the attacked process's
        // endpoint window (conviction must come from the catch-up
        // audit); later ones land after it (normal enforcement,
        // then an unrelated crash).
        const uint64_t crash_at = 150 + 300ULL * point;
        trace::ControlFaultPlan plan;
        plan.monitorCrashAtCycle = crash_at;
        plan.tornJournalOnCrash = point % 2 == 0;
        RecoveryFleet fleet(*server_guard, calmService(),
                            quickRecovery(), plan,
                            3'000 + point, serverApps(), inputs);
        fleet.run(20'000'000);

        const bool enforced = fleet.detected(
            1, ViolationReport::Kind::CfiViolation);
        const bool audited = fleet.catchUpViolation(1);
        ASSERT_TRUE(enforced || audited)
            << "crash@" << crash_at
            << ": attack lost without a trace — not even the "
               "catch-up audit saw it";
        ASSERT_EQ(fleet.kernels[0]->kills(), 0u)
            << "crash@" << crash_at;
        ASSERT_TRUE(fleet.ledgerIdentityHolds())
            << "crash@" << crash_at;
        ASSERT_TRUE(fleet.service.accountingBalances())
            << "crash@" << crash_at;
        audited_runs += audited;
        enforced_runs += enforced;
        server_guard->itc().clearRuntime();
    }

    // Both conviction paths must actually occur across the sweep:
    // some crashes swallow the attack window (catch-up audit), some
    // land elsewhere (normal enforcement).
    EXPECT_GE(audited_runs, 1);
    EXPECT_GE(enforced_runs, 1);
}

} // namespace

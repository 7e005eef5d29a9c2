/**
 * @file
 * ProtectionService integration tests: a fleet of processes
 * time-sliced on one cpu::Machine, protected through the service's
 * bounded scheduler.
 *
 * An untrained guard makes every endpoint window Suspicious (all
 * edges carry low credit), so each endpoint escalates to the slow
 * path — saturating load on demand. A trained guard resolves benign
 * traffic on the fast path, isolating attribution and storm tests
 * from overload effects. The contract:
 *
 *  - reports are attributable: cr3 + endpoint seq name the process;
 *  - DeferAndRecheck detects every planted attack, possibly late
 *    (deferred kill or post-mortem report), and never convicts a
 *    benign process;
 *  - FailClosed trades availability: overload alone kills benign
 *    processes with CheckTimeout evidence;
 *  - AuditOnly never kills for overload but waives enforcement;
 *  - the circuit breaker quarantines a process that keeps missing
 *    deadlines, and the machine never deadlocks;
 *  - accounting always balances: no check is silently dropped.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "core/flowguard.hh"
#include "cpu/machine.hh"
#include "runtime/service.hh"
#include "trace/faults.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::runtime;

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

class ServiceOverload : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        app = new workloads::SyntheticApp(
            workloads::buildServerApp(fleetSpec(base_cr3)));
        catalog = new attacks::GadgetCatalog(
            attacks::scanGadgets(app->program));
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
    makeGuard(bool train)
    {
        FlowGuardConfig config;
        config.topaRegions = {4096, 4096};
        FlowGuard guard(app->program, config);
        guard.analyze();
        if (train) {
            std::vector<fuzz::Input> corpus;
            for (uint64_t seed = 1; seed <= 4; ++seed)
                corpus.push_back(workloads::makeBenignStream(
                    12, seed, 4, 2));
            guard.trainWithCorpus(corpus);
        }
        return guard;
    }

    static std::vector<uint8_t>
    benign(uint64_t seed, size_t requests = 10)
    {
        return workloads::makeBenignStream(requests, seed, 4, 2);
    }

    static workloads::SyntheticApp *app;
    static attacks::GadgetCatalog *catalog;
};

workloads::SyntheticApp *ServiceOverload::app = nullptr;
attacks::GadgetCatalog *ServiceOverload::catalog = nullptr;

/**
 * A fleet of identical-image processes under distinct CR3s, each
 * with its own FlowGuardKernel (per-process I/O state), all routed
 * through one ProtectionService on one Machine.
 */
struct Fleet
{
    std::vector<workloads::SyntheticApp> apps;
    std::vector<std::unique_ptr<FlowGuard::ProcessHarness>> procs;
    std::vector<std::unique_ptr<FlowGuardKernel>> kernels;
    cpu::Machine machine;
    ProtectionService service;

    Fleet(FlowGuard &guard, ServiceConfig config,
          const std::vector<std::vector<uint8_t>> &inputs)
        : service(config)
    {
        service.setMachine(machine);
        const size_t n = inputs.size();
        apps.reserve(n);
        for (size_t i = 0; i < n; ++i)
            apps.push_back(workloads::buildServerApp(
                fleetSpec(base_cr3 + i)));
        for (size_t i = 0; i < n; ++i) {
            procs.push_back(
                guard.makeProcessHarness(apps[i].program));
            kernels.push_back(std::make_unique<FlowGuardKernel>(
                FlowGuardKernel::Config{}));
            kernels[i]->attachService(service);
            kernels[i]->setInput(inputs[i]);
            procs[i]->cpu->setSyscallHandler(kernels[i].get());
            service.addProcess(apps[i].program.cr3(),
                               *procs[i]->monitor,
                               *procs[i]->encoder, *procs[i]->topa,
                               *procs[i]->cpu, &procs[i]->cycles);
            machine.addProcess(*procs[i]->cpu);
        }
        machine.setQuantum(2'000);
    }

    uint64_t cr3(size_t i) const { return apps[i].program.cr3(); }

    /** All reports about process i: its kernel kills + service log. */
    std::vector<ViolationReport>
    reportsFor(size_t i) const
    {
        std::vector<ViolationReport> all = kernels[i]->violations();
        for (const auto &report : service.reports())
            if (report.cr3 == cr3(i))
                all.push_back(report);
        return all;
    }

    bool
    detected(size_t i, ViolationReport::Kind kind) const
    {
        for (const auto &report : reportsFor(i))
            if (report.kind == kind)
                return true;
        return false;
    }
};

TEST_F(ServiceOverload, MultiProcessAttackAttribution)
{
    // Trained guard, generous deadline: no overload effects. The
    // attacked process dies with an attributable report; its benign
    // neighbors are untouched.
    FlowGuard guard = makeGuard(/*train=*/true);
    ServiceConfig config;
    config.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    auto attack =
        attacks::buildRopWriteAttack(app->program, *catalog);
    Fleet fleet(guard, config,
                {benign(31), attack.request, benign(32)});

    auto attached = fleet.service.attachAll();
    EXPECT_EQ(attached.attached, 3u);
    fleet.machine.run(100'000'000);
    fleet.service.drain();

    EXPECT_TRUE(
        fleet.detected(1, ViolationReport::Kind::CfiViolation));
    const auto attack_reports = fleet.reportsFor(1);
    ASSERT_FALSE(attack_reports.empty());
    EXPECT_EQ(attack_reports.front().cr3, fleet.cr3(1));
    EXPECT_GE(attack_reports.front().seq, 1u);

    EXPECT_EQ(fleet.kernels[0]->kills(), 0u);
    EXPECT_EQ(fleet.kernels[2]->kills(), 0u);
    EXPECT_EQ(fleet.procs[0]->cpu->state(), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(fleet.procs[2]->cpu->state(), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(fleet.procs[1]->cpu->state(), cpu::Cpu::Stop::Killed);
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(ServiceOverload, DeferAndRecheckDetectsAttacksUnderOverload)
{
    // Untrained guard + tight deadline: every endpoint escalates and
    // most miss the deadline. Detection of both planted attacks is
    // guaranteed — inline, via a deferred kill, or post-mortem — and
    // no benign process is convicted.
    FlowGuard guard = makeGuard(/*train=*/false);
    ServiceConfig config;
    config.scheduler.policy = OverloadPolicy::DeferAndRecheck;
    config.scheduler.deadlineCycles = 10'000;
    config.breakerThreshold = 1'000'000;    // breaker out of the way
    auto rop = attacks::buildRopWriteAttack(app->program, *catalog);
    auto srop = attacks::buildSropAttack(app->program, *catalog);
    Fleet fleet(guard, config,
                {benign(41), rop.request, benign(42), srop.request});

    EXPECT_EQ(fleet.service.attachAll().attached, 4u);
    fleet.machine.run(100'000'000);
    fleet.service.drain();

    EXPECT_TRUE(
        fleet.detected(1, ViolationReport::Kind::CfiViolation));
    EXPECT_TRUE(
        fleet.detected(3, ViolationReport::Kind::CfiViolation));
    EXPECT_EQ(fleet.kernels[0]->kills(), 0u);
    EXPECT_EQ(fleet.kernels[2]->kills(), 0u);

    const auto &stats = fleet.service.schedulerStats();
    EXPECT_GT(stats.timeouts, 0u);      // overload actually happened
    EXPECT_GT(stats.deferred, 0u);
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(ServiceOverload, FailClosedSacrificesAvailabilityUnderOverload)
{
    // The documented trade-off: with FailClosed, overload alone
    // kills benign processes, and the report says CheckTimeout — an
    // overload refusal, not a fabricated control-flow accusation.
    FlowGuard guard = makeGuard(/*train=*/false);
    ServiceConfig config;
    config.scheduler.policy = OverloadPolicy::FailClosed;
    config.scheduler.deadlineCycles = 10'000;
    Fleet fleet(guard, config, {benign(51), benign(52), benign(53)});

    EXPECT_EQ(fleet.service.attachAll().attached, 3u);
    fleet.machine.run(100'000'000);
    fleet.service.drain();

    uint64_t kills = 0;
    for (const auto &kernel : fleet.kernels)
        kills += kernel->kills();
    EXPECT_GE(kills, 1u);
    bool timeout_kind = false;
    for (size_t i = 0; i < 3; ++i)
        timeout_kind |=
            fleet.detected(i, ViolationReport::Kind::CheckTimeout);
    EXPECT_TRUE(timeout_kind);
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(ServiceOverload, AuditOnlyNeverKillsForOverload)
{
    FlowGuard guard = makeGuard(/*train=*/false);
    ServiceConfig config;
    config.scheduler.policy = OverloadPolicy::AuditOnly;
    config.scheduler.deadlineCycles = 10'000;
    config.breakerThreshold = 1'000'000;
    Fleet fleet(guard, config, {benign(61), benign(62), benign(63)});

    EXPECT_EQ(fleet.service.attachAll().attached, 3u);
    fleet.machine.run(100'000'000);
    fleet.service.drain();

    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(fleet.kernels[i]->kills(), 0u);
        EXPECT_EQ(fleet.procs[i]->cpu->state(),
                  cpu::Cpu::Stop::Halted);
    }
    EXPECT_GT(fleet.service.schedulerStats().auditWaived, 0u);
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(ServiceOverload, CircuitBreakerSuspendsWithoutDeadlock)
{
    // Every process keeps missing deadlines, so every breaker trips
    // and suspends its process. The machine must terminate rather
    // than spin on an all-suspended fleet, and the quarantines are
    // reported and accounted.
    FlowGuard guard = makeGuard(/*train=*/false);
    ServiceConfig config;
    config.scheduler.policy = OverloadPolicy::DeferAndRecheck;
    config.scheduler.deadlineCycles = 10'000;
    config.breakerThreshold = 3;
    config.quarantineAction = QuarantineAction::Suspend;
    Fleet fleet(guard, config,
                {benign(71, 30), benign(72, 30), benign(73, 30)});

    EXPECT_EQ(fleet.service.attachAll().attached, 3u);
    fleet.machine.run(100'000'000);     // must return: no deadlock
    fleet.service.drain();

    const auto &stats = fleet.service.stats();
    EXPECT_GE(stats.quarantines, 1u);
    bool quarantined_kind = false;
    bool suspended = false;
    for (size_t i = 0; i < 3; ++i) {
        quarantined_kind |=
            fleet.detected(i, ViolationReport::Kind::Quarantined);
        suspended |= fleet.machine.suspended(fleet.cr3(i));
        EXPECT_EQ(fleet.kernels[i]->kills(), 0u);
    }
    EXPECT_TRUE(quarantined_kind);
    EXPECT_TRUE(suspended);
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(ServiceOverload, CircuitBreakerKillDeliversSigkill)
{
    FlowGuard guard = makeGuard(/*train=*/false);
    ServiceConfig config;
    config.scheduler.policy = OverloadPolicy::DeferAndRecheck;
    config.scheduler.deadlineCycles = 10'000;
    config.breakerThreshold = 2;
    config.quarantineAction = QuarantineAction::Kill;
    Fleet fleet(guard, config, {benign(81, 30), benign(82, 30)});

    EXPECT_EQ(fleet.service.attachAll().attached, 2u);
    fleet.machine.run(100'000'000);
    fleet.service.drain();

    uint64_t kills = 0;
    bool quarantined_kind = false;
    for (size_t i = 0; i < 2; ++i) {
        kills += fleet.kernels[i]->kills();
        quarantined_kind |=
            fleet.detected(i, ViolationReport::Kind::Quarantined);
    }
    EXPECT_GE(kills, 1u);
    EXPECT_TRUE(quarantined_kind);
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(ServiceOverload, CircuitBreakerAuditWaivesFastConviction)
{
    // Audit quarantine demotes every later check of the process to
    // audit class: a conviction is filed as waived evidence, never a
    // kill — also when the inline fast phase alone convicts. An
    // untrained guard escalates every benign endpoint, and a deadline
    // no check can meet trips the breaker before the ROP chain runs.
    FlowGuard guard = makeGuard(/*train=*/false);
    ServiceConfig config;
    config.scheduler.policy = OverloadPolicy::AuditOnly;
    config.scheduler.deadlineCycles = 1;
    config.breakerThreshold = 2;
    config.quarantineAction = QuarantineAction::Audit;
    auto input = benign(101, 4);
    auto rop = attacks::buildRopWriteAttack(app->program, *catalog);
    input.insert(input.end(), rop.request.begin(), rop.request.end());
    Fleet fleet(guard, config, {input});

    EXPECT_EQ(fleet.service.attachAll().attached, 1u);
    fleet.machine.run(100'000'000);
    fleet.service.drain();

    EXPECT_TRUE(fleet.detected(0, ViolationReport::Kind::Quarantined));
    EXPECT_EQ(fleet.kernels[0]->kills(), 0u);
    EXPECT_NE(fleet.procs[0]->cpu->state(), cpu::Cpu::Stop::Killed);
    EXPECT_GE(fleet.service.stats().inlineFastViolations, 1u);
    const std::string waived = " [audit-class, enforcement waived]";
    bool fast_waived = false;
    for (const auto &report : fleet.service.reports()) {
        fast_waived |=
            report.kind == ViolationReport::Kind::CfiViolation &&
            report.reason ==
                "fast path: ITC-CFG edge mismatch" + waived;
    }
    EXPECT_TRUE(fast_waived);
    std::string why;
    EXPECT_TRUE(fleet.service.stats().checkInvariants(&why)) << why;
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(ServiceOverload, PmiStormLoadsSchedulerButBalances)
{
    // Injected PMI storms become audit-class spurious checks: load,
    // never enforcement. A trained fleet survives them untouched.
    FlowGuard guard = makeGuard(/*train=*/true);
    ServiceConfig config;
    config.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    Fleet fleet(guard, config, {benign(91), benign(92)});

    trace::FaultInjector faults(123);
    trace::ControlFaultPlan plan;
    plan.pmiStormChance = 1.0;
    plan.pmiStormBurst = 3;
    faults.setControlPlan(plan);
    fleet.service.setFaultInjector(faults);

    EXPECT_EQ(fleet.service.attachAll().attached, 2u);
    fleet.machine.run(100'000'000);
    fleet.service.drain();

    EXPECT_GT(fleet.service.stats().pmiStormChecks, 0u);
    for (size_t i = 0; i < 2; ++i)
        EXPECT_EQ(fleet.kernels[i]->kills(), 0u);
    EXPECT_TRUE(fleet.service.accountingBalances());
}

TEST_F(ServiceOverload, TimedOutWindowsNeverEarnCacheCredit)
{
    // Satellite regression for §7.1.1 verdict caching under
    // overload: with a deadline so tight no real window can finish,
    // no slow-path pass may promote edges to high credit — deferred
    // and timed-out verdicts never touch the ITC-CFG.
    FlowGuard guard = makeGuard(/*train=*/false);
    const size_t before = guard.itc().highCreditCount();
    ServiceConfig config;
    config.scheduler.policy = OverloadPolicy::DeferAndRecheck;
    config.scheduler.deadlineCycles = 1;
    config.breakerThreshold = 1'000'000;
    Fleet fleet(guard, config, {benign(95), benign(96)});

    EXPECT_EQ(fleet.service.attachAll().attached, 2u);
    fleet.machine.run(100'000'000);
    fleet.service.drain();

    const auto &stats = fleet.service.schedulerStats();
    EXPECT_GT(stats.deferred, 0u);
    EXPECT_EQ(guard.itc().highCreditCount(), before);
    EXPECT_TRUE(fleet.service.accountingBalances());
}

} // namespace

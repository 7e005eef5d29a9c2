/**
 * @file
 * End-to-end dynamic-code tests on the plugin server:
 *
 *  - dlopen/dlclose churn under full protection never false-positives
 *    (the unload barrier checks the final window while the module is
 *    still live, then restarts the trace stream);
 *  - a ROP chain that pivots through an *unloaded* plugin's stale
 *    code range is convicted at the write endpoint with a
 *    stale-specific reason;
 *  - JitPolicy semantics at the checker level: Deny convicts,
 *    Allowlist degrades to a packet-level check, AuditOnly waives
 *    unknown-code transitions but files audit observations;
 *  - the same churn through the multi-process protection service's
 *    scheduler: barrier checks are synchronous, nothing is killed,
 *    and invalidation accounting balances everywhere.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "attacks/gadgets.hh"
#include "core/flowguard.hh"
#include "cpu/machine.hh"
#include "isa/syscalls.hh"
#include "runtime/service.hh"
#include "trace/ipt.hh"
#include "workloads/apps.hh"
#include "stale_rop.hh"

namespace {

using namespace flowguard;
using namespace flowguard::runtime;

workloads::PluginServerSpec
churnSpec(uint64_t cr3 = 0x6000)
{
    workloads::PluginServerSpec spec;
    spec.numPlugins = 2;
    spec.handlersPerPlugin = 2;
    spec.workPerCall = 8;
    spec.numFillerFuncs = 12;
    spec.implantVuln = true;
    spec.seed = 9;
    spec.cr3 = cr3;
    return spec;
}

class DynamicChurn : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        app = new workloads::SyntheticApp(
            workloads::buildPluginServerApp(churnSpec()));
        catalog = new attacks::GadgetCatalog(
            attacks::scanGadgets(app->program));
    }

    static void
    TearDownTestSuite()
    {
        delete catalog;
        delete app;
        catalog = nullptr;
        app = nullptr;
    }

    static FlowGuard
    makeTrainedGuard(dynamic::JitPolicy policy =
                         dynamic::JitPolicy::Allowlist)
    {
        FlowGuardConfig config;
        config.dynamicModules = app->dynamicModules;
        config.jitPolicy = policy;
        FlowGuard guard(app->program, config);
        guard.analyze();
        std::vector<fuzz::Input> corpus;
        for (uint64_t seed = 1; seed <= 4; ++seed)
            corpus.push_back(
                workloads::makePluginStream(10, seed, churnSpec()));
        guard.trainWithCorpus(corpus);
        return guard;
    }

    static std::vector<uint8_t>
    staleRopRequest()
    {
        return test::staleRopRequest(*app, *catalog);
    }

    /**
     * Synthetic window with one checked TIP, `source` -> `target`.
     * The first event only re-enters the traced context (TIP.PGE at
     * `source`); the second is the transition under test.
     */
    static std::vector<uint8_t>
    oneTipWindow(uint64_t source, uint64_t target)
    {
        trace::Topa topa({1 << 16});
        trace::IptEncoder encoder(trace::IptConfig{}, topa);
        cpu::BranchEvent event;
        event.kind = cpu::BranchKind::IndirectCall;
        event.source = source;
        event.target = source;      // PGE: establishes the last IP
        event.cr3 = app->program.cr3();
        encoder.onBranch(event);
        event.target = target;
        encoder.onBranch(event);
        encoder.flushTnt();
        return topa.snapshot();
    }

    static workloads::SyntheticApp *app;
    static attacks::GadgetCatalog *catalog;
};

workloads::SyntheticApp *DynamicChurn::app = nullptr;
attacks::GadgetCatalog *DynamicChurn::catalog = nullptr;

TEST_F(DynamicChurn, BenignChurnHasNoFalsePositives)
{
    FlowGuard guard = makeTrainedGuard();
    for (uint64_t seed = 50; seed < 53; ++seed) {
        auto outcome = guard.run(
            workloads::makePluginStream(30, seed, churnSpec()));
        EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Halted);
        EXPECT_FALSE(outcome.attackDetected);
        EXPECT_GT(outcome.monitor.checks, 0u);
        EXPECT_EQ(outcome.monitor.staleViolations, 0u);
        // The stream really exercised load/unload cycles, and every
        // invalidation is accounted for.
        EXPECT_GT(outcome.dynamicStats.moduleLoads, 0u);
        EXPECT_GT(outcome.dynamicStats.moduleUnloads, 0u);
        EXPECT_TRUE(outcome.dynamicStats.accountingBalances());
    }
}

TEST_F(DynamicChurn, StaleRopSucceedsWithoutProtection)
{
    FlowGuard guard(app->program);
    auto outcome = guard.runUnprotected(staleRopRequest());
    // The pivot through the (conceptually unloaded) plugin is real
    // executable memory in the simulator, so the chain runs to its
    // attacker-chosen exit after exfiltrating 16 bytes.
    EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Halted);
    EXPECT_GE(outcome.output.size(), 16u);
}

TEST_F(DynamicChurn, StaleRopIntoUnloadedPluginConvicted)
{
    FlowGuard guard = makeTrainedGuard();
    auto outcome = guard.run(staleRopRequest());
    EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Killed);
    ASSERT_TRUE(outcome.attackDetected);
    EXPECT_GE(outcome.monitor.staleViolations, 1u);
    EXPECT_EQ(outcome.violations.front().syscall,
              static_cast<int64_t>(isa::Syscall::Write));
    EXPECT_NE(outcome.violations.front().reason.find("stale"),
              std::string::npos)
        << outcome.violations.front().reason;
    EXPECT_TRUE(outcome.output.empty());    // nothing exfiltrated
    EXPECT_TRUE(outcome.dynamicStats.accountingBalances());
}

TEST_F(DynamicChurn, AuditOnlyWaivesUnknownCodeButRecordsIt)
{
    FlowGuard guard = makeTrainedGuard();
    Monitor monitor(app->program, guard.itc(), guard.ocfg(),
                    guard.typearmor());
    dynamic::DynamicGuard dyn(app->program, guard.itc(),
                              dynamic::JitPolicy::AuditOnly);
    monitor.attachDynamic(dyn);

    // A transition into address space no module or JIT region claims.
    const uint64_t source =
        app->program.modules()[0].codeBase + 8;
    const auto fast =
        monitor.fastPhase(oneTipWindow(source, 0x0000000333000000ULL));
    EXPECT_FALSE(fast.needSlow);
    EXPECT_EQ(fast.verdict, CheckVerdict::Pass);
    EXPECT_GE(monitor.stats().unknownCodeTips, 1u);
    EXPECT_GE(monitor.consumeUnknownAudit(), 1u);
    EXPECT_EQ(monitor.consumeUnknownAudit(), 0u);   // drained
}

TEST_F(DynamicChurn, JitPolicyAtTheSlowPath)
{
    FlowGuard guard = makeTrainedGuard();
    SlowPathChecker checker(guard.ocfg(), guard.typearmor());
    dynamic::DynamicGuard dyn(app->program, guard.itc());

    cpu::CodeEvent jit;
    jit.kind = cpu::CodeEventKind::JitRegionMap;
    jit.cr3 = app->program.cr3();
    jit.base = isa::layout::jit_base;
    jit.end = isa::layout::jit_base + isa::layout::page;
    dyn.onCodeEvent(jit);

    const uint64_t source = app->program.modules()[0].codeBase + 8;
    const auto window = oneTipWindow(source, jit.base + 0x20);

    checker.setDynamic(&dyn.map(), dynamic::JitPolicy::Deny,
                       &guard.itc());
    auto denied = checker.check(window);
    EXPECT_EQ(denied.verdict, CheckVerdict::Violation);
    EXPECT_NE(denied.reason.find("JitPolicy::Deny"),
              std::string::npos)
        << denied.reason;

    // Allowlist: the window cannot be full-decoded (no image of the
    // JIT instructions), so it degrades to a packet-level membership
    // check instead of false-convicting on a desync.
    checker.setDynamic(&dyn.map(), dynamic::JitPolicy::Allowlist,
                       &guard.itc());
    auto allowed = checker.check(window);
    EXPECT_TRUE(allowed.degraded);
    EXPECT_EQ(allowed.verdict, CheckVerdict::Pass)
        << allowed.reason;

    // Stale pre-scan: a TIP into an unloaded plugin convicts before
    // any decode walk, with the range-specific reason.
    dynamic::DynamicGuard stale_dyn(app->program, guard.itc());
    stale_dyn.startUnloaded(app->dynamicModules);
    checker.setDynamic(&stale_dyn.map(),
                       dynamic::JitPolicy::Allowlist, &guard.itc());
    const auto &mod = app->program.modules()[app->dynamicModules[0]];
    auto stale = checker.check(oneTipWindow(source, mod.codeBase));
    EXPECT_EQ(stale.verdict, CheckVerdict::Violation);
    EXPECT_TRUE(stale.staleHit);
    EXPECT_NE(stale.reason.find("stale"), std::string::npos)
        << stale.reason;

    // Restore the suite-shared graph's liveness.
    dynamic::DynamicGuard restore(app->program, guard.itc());
}

TEST_F(DynamicChurn, ServiceModeChurnUnderScheduler)
{
    FlowGuard guard = makeTrainedGuard();

    ServiceConfig config;
    ProtectionService service(config);
    cpu::Machine machine;
    service.setMachine(machine);

    constexpr size_t n = 3;
    std::vector<workloads::SyntheticApp> apps;
    apps.reserve(n);
    for (size_t i = 0; i < n; ++i)
        apps.push_back(workloads::buildPluginServerApp(
            churnSpec(0x6100 + 0x100 * i)));

    std::vector<std::unique_ptr<FlowGuard::ProcessHarness>> procs;
    std::vector<std::unique_ptr<FlowGuardKernel>> kernels;
    for (size_t i = 0; i < n; ++i) {
        procs.push_back(guard.makeProcessHarness(apps[i].program));
        ASSERT_NE(procs[i]->dyn, nullptr);
        kernels.push_back(std::make_unique<FlowGuardKernel>(
            FlowGuardKernel::Config{}));
        kernels[i]->attachService(service);
        kernels[i]->setInput(workloads::makePluginStream(
            12, 60 + i, churnSpec()));
        // The kernel publishes dlopen/dlclose/JIT events; the
        // harness's guard consumes them (see ProcessHarness docs).
        kernels[i]->addCodeEventSink(procs[i]->dyn.get());
        procs[i]->cpu->setSyscallHandler(kernels[i].get());
        service.addProcess(apps[i].program.cr3(),
                           *procs[i]->monitor, *procs[i]->encoder,
                           *procs[i]->topa, *procs[i]->cpu,
                           &procs[i]->cycles);
        machine.addProcess(*procs[i]->cpu);
    }
    machine.setQuantum(2'000);

    auto attached = service.attachAll();
    ASSERT_EQ(attached.attached, n);
    machine.run(200'000'000);
    service.drain();

    // Unload barriers ran synchronously (they bypass the scheduler),
    // nobody died, and no invalidation went unaccounted.
    EXPECT_GT(service.stats().barrierChecks, 0u);
    EXPECT_TRUE(service.accountingBalances());
    for (size_t i = 0; i < n; ++i) {
        std::string why;
        for (const auto &v : kernels[i]->violations()) {
            char buf[160];
            const auto *ff = apps[i].program.functionAt(v.from);
            const auto *tf = apps[i].program.functionAt(v.to);
            snprintf(buf, sizeof(buf),
                     " [from=%llx(mod %d %s) to=%llx(mod %d %s) "
                     "sys=%lld seq=%llu]",
                     (unsigned long long)v.from,
                     apps[i].program.moduleIndexAt(v.from),
                     ff ? ff->name.c_str() : "?",
                     (unsigned long long)v.to,
                     apps[i].program.moduleIndexAt(v.to),
                     tf ? tf->name.c_str() : "?",
                     (long long)v.syscall,
                     (unsigned long long)v.seq);
            why += std::string(violationKindName(v.kind)) + ": " +
                v.reason + buf + "; ";
        }
        EXPECT_EQ(kernels[i]->kills(), 0u)
            << "process " << i << ": " << why;
        EXPECT_GT(procs[i]->dyn->stats().moduleLoads, 0u);
        EXPECT_GT(procs[i]->dyn->stats().moduleUnloads, 0u);
        EXPECT_TRUE(procs[i]->dyn->stats().accountingBalances());
    }
}

} // namespace

/**
 * @file
 * PMI-overflow robustness (§7.1.2 degraded modes): with PMI service
 * latency, the ToPA drops trace wholesale and the encoder resyncs
 * with OVF + PSB. These tests pin down the contract of each
 * LossPolicy under that pressure:
 *
 *  - instant service (latency 0) is never loss — benign wraps must
 *    not convict even under FailClosed;
 *  - FailClosed converts any lossy window into a TraceLoss verdict;
 *  - LogAndPass audits the loss and lets benign traffic live;
 *  - EscalateSlowPath re-checks the surviving window and still
 *    catches a planted ROP attack, attributing it to flow evidence
 *    (CfiViolation), not to the gap.
 *
 * The PMI check is a ProtectionService trigger, so its convictions
 * share the service's one kill queue: the earliest lands at the
 * process's next syscall, whatever its number, and one the process
 * never reaches is filed post-mortem at drain() — unless an earlier
 * kill already ended the process, in which case it is retired.
 */

#include <gtest/gtest.h>

#include "analysis/cfg_builder.hh"
#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "core/flowguard.hh"
#include "cpu/basic_kernel.hh"
#include "isa/syscalls.hh"
#include "runtime/service.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::runtime;

workloads::ServerSpec
miniSpec()
{
    workloads::ServerSpec spec;
    spec.name = "ovf";
    spec.numHandlers = 3;
    spec.numParserStates = 2;
    spec.numFillerFuncs = 10;
    spec.fillerTableSlots = 4;
    spec.workPerRequest = 30;
    spec.seed = 5;
    spec.cr3 = 0x999;
    return spec;
}

/** Monitor + a ProtectionService with PMI armed, wired straight to a
 *  Topa (no FlowGuardKernel): the smallest harness that exercises the
 *  PMI checking path. */
struct PmiHarness
{
    workloads::SyntheticApp app;
    analysis::TypeArmorInfo ta;
    analysis::Cfg cfg;
    analysis::ItcCfg itc;
    Monitor monitor;
    trace::Topa topa;
    trace::IptEncoder encoder;
    ProtectionService service;

    PmiHarness(LossPolicy policy, size_t latency_bytes,
               std::vector<size_t> regions = {1024})
        : app(workloads::buildServerApp(miniSpec())),
          ta(analysis::analyzeTypeArmor(app.program)),
          cfg(analysis::buildCfg(app.program, &ta)),
          itc(analysis::ItcCfg::build(cfg)),
          monitor(app.program, itc, cfg, ta,
                  [&] {
                      MonitorConfig config;
                      config.lossPolicy = policy;
                      return config;
                  }()),
          topa(std::move(regions)),
          encoder(trace::IptConfig{}, topa)
    {
        topa.setPmiServiceLatency(latency_bytes);
        service.addProcess(app.program.cr3(), monitor, encoder, topa);
        service.attachAll();
        service.armPmi(app.program.cr3());
    }

    /** Pops the oldest PMI kill awaiting delivery, if any. */
    bool
    consumePendingKill(ViolationReport &out)
    {
        return service.consumePendingKill(app.program.cr3(), out);
    }

    cpu::Cpu::Stop
    runBenign(uint64_t seed)
    {
        cpu::Cpu cpu(app.program);
        cpu::BasicKernel kernel;
        const auto &spec = miniSpec();
        kernel.setInput(workloads::makeBenignStream(
            30, seed, spec.numHandlers, spec.numParserStates));
        cpu.setSyscallHandler(&kernel);
        cpu.addTraceSink(&encoder);
        return cpu.run(10'000'000);
    }
};

TEST(PmiOverflow, InstantServiceWrapIsNotLoss)
{
    // Even the strictest policy must tolerate plain buffer wraps:
    // with instant PMI service nothing is dropped, and the torn
    // packet at the snapshot tail is a clean EOF, not loss.
    PmiHarness harness(LossPolicy::FailClosed, /*latency=*/0);
    EXPECT_EQ(harness.runBenign(21), cpu::Cpu::Stop::Halted);
    EXPECT_GE(harness.service.stats().pmiChecks, 2u);
    EXPECT_EQ(harness.topa.overflowEpisodes(), 0u);
    ViolationReport none;
    EXPECT_FALSE(harness.consumePendingKill(none));
    EXPECT_EQ(harness.monitor.stats().lossWindows, 0u);
}

TEST(PmiOverflow, FailClosedConvictsLossyWindow)
{
    PmiHarness harness(LossPolicy::FailClosed, /*latency=*/512);
    harness.runBenign(21);
    ASSERT_GE(harness.topa.overflowEpisodes(), 2u);
    ViolationReport report;
    ASSERT_TRUE(harness.consumePendingKill(report));
    EXPECT_EQ(report.kind, ViolationReport::Kind::TraceLoss);
    EXPECT_EQ(report.reason, "PMI window: trace loss (fail-closed policy)");
    // Every later lossy window queued its own kill behind the first,
    // in PMI order: one per loss conviction, none beyond.
    uint64_t queued = 1;
    uint64_t last_seq = report.seq;
    for (ViolationReport later; harness.consumePendingKill(later);) {
        ++queued;
        EXPECT_EQ(later.kind, report.kind);
        EXPECT_EQ(later.reason, report.reason);
        EXPECT_GT(later.seq, last_seq);
        last_seq = later.seq;
    }
    const auto &stats = harness.monitor.stats();
    EXPECT_EQ(queued, stats.lossViolations);
    EXPECT_GE(stats.lossWindows, 1u);
    EXPECT_GE(stats.lossViolations, 1u);
    EXPECT_GE(stats.overflows, 1u);
}

TEST(PmiOverflow, LogAndPassOnlyAudits)
{
    PmiHarness harness(LossPolicy::LogAndPass, /*latency=*/512);
    EXPECT_EQ(harness.runBenign(21), cpu::Cpu::Stop::Halted);
    ASSERT_GE(harness.topa.overflowEpisodes(), 2u);
    ViolationReport none;
    EXPECT_FALSE(harness.consumePendingKill(none));
    const auto &stats = harness.monitor.stats();
    EXPECT_GE(stats.lossWindows, 1u);
    EXPECT_EQ(stats.lossAccepted, stats.lossWindows);
    EXPECT_EQ(stats.lossViolations, 0u);
    EXPECT_EQ(stats.lossEscalations, 0u);
}

TEST(PmiOverflow, EscalateSlowPathClearsBenignLoss)
{
    PmiHarness harness(LossPolicy::EscalateSlowPath, /*latency=*/512);
    EXPECT_EQ(harness.runBenign(21), cpu::Cpu::Stop::Halted);
    ASSERT_GE(harness.topa.overflowEpisodes(), 2u);
    ViolationReport none;
    EXPECT_FALSE(harness.consumePendingKill(none));
    const auto &stats = harness.monitor.stats();
    EXPECT_GE(stats.lossWindows, 1u);
    EXPECT_GE(stats.lossEscalations, 1u);
    EXPECT_GE(stats.slowChecks, stats.lossEscalations);
    EXPECT_EQ(stats.lossViolations, 0u);
}

// --- one kill queue ----------------------------------------------------------

/** A window with one checked TIP, from inside the image into address
 *  space no module claims: every full-buffer check convicts it. */
std::vector<uint8_t>
hijackWindow()
{
    const auto app = workloads::buildServerApp(miniSpec());
    trace::Topa topa({1 << 16});
    trace::IptEncoder encoder(trace::IptConfig{}, topa);
    cpu::BranchEvent event;
    event.kind = cpu::BranchKind::IndirectCall;
    event.source = app.program.modules()[0].codeBase + 8;
    event.target = event.source;
    event.cr3 = app.program.cr3();
    encoder.onBranch(event);
    event.target = 0x0000000333000000ULL;
    encoder.onBranch(event);
    encoder.flushTnt();
    return topa.snapshot();
}

/** A harness whose ToPA fills, firing one PMI, on every write of
 *  `window`. */
PmiHarness
windowHarness(const std::vector<uint8_t> &window)
{
    return PmiHarness(LossPolicy::FailClosed, /*latency=*/0,
                      {window.size()});
}

TEST(PmiDelivery, KillLandsAtNextSyscallOfAnyNumber)
{
    const auto window = hijackWindow();
    for (const auto number : {isa::Syscall::Read, isa::Syscall::Write}) {
        PmiHarness harness = windowHarness(window);
        harness.topa.write(window.data(), window.size());
        ASSERT_EQ(harness.service.stats().pmiChecks, 1u);
        const uint64_t checks = harness.monitor.stats().checks;

        FlowGuardKernel kernel(FlowGuardKernel::Config{});
        kernel.attachService(harness.service);
        cpu::Cpu cpu(harness.app.program);
        const auto result =
            kernel.onSyscall(cpu, static_cast<int64_t>(number));
        EXPECT_EQ(result.action, cpu::SyscallResult::Action::Kill);
        ASSERT_EQ(kernel.violations().size(), 1u);
        const ViolationReport &kill = kernel.violations().front();
        EXPECT_EQ(kill.reason.rfind("PMI window: ", 0), 0u)
            << kill.reason;
        EXPECT_EQ(kill.cr3, harness.app.program.cr3());
        EXPECT_EQ(kill.seq, 1u);
        EXPECT_EQ(kill.syscall, -1);
        // The delivering syscall's own check never ran, endpoint or
        // not.
        EXPECT_EQ(harness.monitor.stats().checks, checks);
        EXPECT_EQ(harness.service.stats().endpointChecks, 0u);
    }
}

TEST(PmiDelivery, TwoConvictionsDeliverTheEarliest)
{
    const auto window = hijackWindow();
    PmiHarness harness = windowHarness(window);
    harness.topa.write(window.data(), window.size());
    harness.topa.write(window.data(), window.size());
    ASSERT_EQ(harness.service.stats().pmiChecks, 2u);

    FlowGuardKernel kernel(FlowGuardKernel::Config{});
    kernel.attachService(harness.service);
    cpu::Cpu cpu(harness.app.program);
    kernel.onSyscall(cpu, static_cast<int64_t>(isa::Syscall::Read));
    ASSERT_EQ(kernel.violations().size(), 1u);
    EXPECT_EQ(kernel.violations().front().seq, 1u);
    // The later window's evidence stays queued behind it.
    ViolationReport later;
    ASSERT_TRUE(harness.consumePendingKill(later));
    EXPECT_EQ(later.seq, 2u);
    EXPECT_EQ(later.reason, kernel.violations().front().reason);
    EXPECT_FALSE(harness.consumePendingKill(later));
}

TEST(PmiDelivery, UndeliveredKillIsFiledAtDrain)
{
    const auto window = hijackWindow();
    PmiHarness harness = windowHarness(window);
    harness.topa.write(window.data(), window.size());
    ASSERT_EQ(harness.service.stats().pmiChecks, 1u);
    harness.service.drain();   // panics on a broken identity

    size_t post_mortem = 0;
    for (const auto &report : harness.service.reports()) {
        if (report.reason.rfind("PMI window: ", 0) != 0)
            continue;
        ++post_mortem;
        EXPECT_EQ(report.seq, 1u);
        EXPECT_TRUE(report.reason.ends_with(
            " [post-mortem: process stopped first]"))
            << report.reason;
    }
    EXPECT_EQ(post_mortem, 1u);
    std::string why;
    EXPECT_TRUE(harness.service.stats().checkInvariants(&why)) << why;
    ViolationReport none;
    EXPECT_FALSE(harness.consumePendingKill(none));
}

/** Records the verdict lifecycle the service journals. */
struct VerdictLog : RecoveryHooks
{
    std::vector<uint64_t> committed;
    std::vector<uint64_t> delivered;

    Gate gateEndpoint(uint64_t, uint64_t, uint64_t) override
    {
        return Gate::Proceed;
    }
    Gate gateDrain(uint64_t) override { return Gate::Proceed; }
    void noteWindow(uint64_t, uint64_t, ProtectionWindowClass) override {}
    void
    noteVerdictCommitted(const ViolationReport &report) override
    {
        committed.push_back(report.seq);
    }
    void
    noteVerdictDelivered(uint64_t, uint64_t seq) override
    {
        delivered.push_back(seq);
    }
};

TEST(PmiDelivery, KillQueuedBehindADeliveredKillIsRetiredAtDrain)
{
    // TwoConvictionsDeliverTheEarliest, then the run ends: the kill
    // that ended the process leaves the later one queued, and drain()
    // must not file it as if the process had stopped on its own.
    const auto window = hijackWindow();
    PmiHarness harness = windowHarness(window);
    VerdictLog journal;
    harness.service.setRecoveryHooks(&journal);
    harness.topa.write(window.data(), window.size());
    harness.topa.write(window.data(), window.size());
    ASSERT_EQ(harness.service.stats().pmiChecks, 2u);

    FlowGuardKernel kernel(FlowGuardKernel::Config{});
    kernel.attachService(harness.service);
    cpu::Cpu cpu(harness.app.program);
    kernel.onSyscall(cpu, static_cast<int64_t>(isa::Syscall::Read));
    ASSERT_EQ(kernel.violations().size(), 1u);
    EXPECT_EQ(kernel.violations().front().seq, 1u);
    harness.service.drain();   // panics on a broken identity

    for (const auto &report : harness.service.reports())
        EXPECT_NE(report.reason.rfind("PMI window: ", 0), 0u)
            << "filed after its process was killed: " << report.reason;
    // Still journaled as delivered, so a warm restart cannot re-queue
    // it.
    EXPECT_EQ(journal.committed, (std::vector<uint64_t>{1, 2}));
    EXPECT_EQ(journal.delivered, (std::vector<uint64_t>{1, 2}));
    std::string why;
    EXPECT_TRUE(harness.service.stats().checkInvariants(&why)) << why;
    ViolationReport none;
    EXPECT_FALSE(harness.consumePendingKill(none));
}

// --- end-to-end through the FlowGuard facade --------------------------------

class LossPolicyEndToEnd : public ::testing::Test
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
        spec_handlers = spec.numHandlers;
        spec_states = spec.numParserStates;
    }

    static void
    TearDownTestSuite()
    {
        delete app;
        delete catalog;
        app = nullptr;
        catalog = nullptr;
    }

    FlowGuard
    makeGuard(runtime::LossPolicy policy, size_t latency_bytes)
    {
        FlowGuardConfig config;
        config.pmiChecking = true;
        config.topaRegions = {2048, 2048};
        config.pmiServiceLatencyBytes = latency_bytes;
        config.lossPolicy = policy;
        FlowGuard guard(app->program, config);
        guard.analyze();
        std::vector<fuzz::Input> corpus;
        for (uint64_t seed = 1; seed <= 6; ++seed)
            corpus.push_back(workloads::makeBenignStream(
                12, seed, spec_handlers, spec_states));
        guard.trainWithCorpus(corpus);
        return guard;
    }

    std::vector<uint8_t>
    benign(uint64_t seed)
    {
        return workloads::makeBenignStream(8, seed, spec_handlers,
                                           spec_states);
    }

    static workloads::SyntheticApp *app;
    static attacks::GadgetCatalog *catalog;
    static size_t spec_handlers;
    static size_t spec_states;
};

workloads::SyntheticApp *LossPolicyEndToEnd::app = nullptr;
attacks::GadgetCatalog *LossPolicyEndToEnd::catalog = nullptr;
size_t LossPolicyEndToEnd::spec_handlers = 0;
size_t LossPolicyEndToEnd::spec_states = 0;

TEST_F(LossPolicyEndToEnd, FailClosedKillsBenignProcessUnderLoss)
{
    // The documented availability cost of FailClosed: trace pressure
    // alone (no attack) kills the process, and the report says
    // TraceLoss — not a fabricated control-flow accusation.
    FlowGuard guard =
        makeGuard(runtime::LossPolicy::FailClosed, 512);
    auto outcome = guard.run(benign(40));
    EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Killed);
    ASSERT_TRUE(outcome.attackDetected);
    ASSERT_FALSE(outcome.violations.empty());
    EXPECT_EQ(outcome.violations.front().kind,
              runtime::ViolationReport::Kind::TraceLoss);
    EXPECT_GE(outcome.monitor.lossViolations, 1u);
}

TEST_F(LossPolicyEndToEnd, LogAndPassKeepsBenignProcessAlive)
{
    FlowGuard guard =
        makeGuard(runtime::LossPolicy::LogAndPass, 512);
    auto outcome = guard.run(benign(40));
    EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Halted);
    EXPECT_FALSE(outcome.attackDetected);
    EXPECT_GE(outcome.monitor.lossWindows, 1u);
    EXPECT_GE(outcome.monitor.lossAccepted, 1u);
}

TEST_F(LossPolicyEndToEnd, EscalateSlowPathKeepsBenignProcessAlive)
{
    FlowGuard guard =
        makeGuard(runtime::LossPolicy::EscalateSlowPath, 512);
    auto outcome = guard.run(benign(40));
    EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Halted);
    EXPECT_FALSE(outcome.attackDetected);
    EXPECT_GE(outcome.monitor.lossWindows, 1u);
    EXPECT_GE(outcome.monitor.lossEscalations, 1u);
}

TEST_F(LossPolicyEndToEnd, EscalateSlowPathStillCatchesRopUnderLoss)
{
    // The attack from src/attacks rides a trace that is also losing
    // data; the slow path must convict from the surviving window and
    // attribute the kill to flow evidence, not to the gap.
    auto attack = attacks::buildRopWriteAttack(app->program, *catalog);
    FlowGuard guard =
        makeGuard(runtime::LossPolicy::EscalateSlowPath, 512);
    auto outcome = guard.run(attack.request);
    EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Killed);
    ASSERT_TRUE(outcome.attackDetected);
    ASSERT_FALSE(outcome.violations.empty());
    EXPECT_EQ(outcome.violations.front().kind,
              runtime::ViolationReport::Kind::CfiViolation);
    EXPECT_TRUE(outcome.output.empty());    // nothing exfiltrated
}

} // namespace

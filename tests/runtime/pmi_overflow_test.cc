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
 */

#include <gtest/gtest.h>

#include "analysis/cfg_builder.hh"
#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "core/flowguard.hh"
#include "cpu/basic_kernel.hh"
#include "runtime/pmi.hh"
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

/** Monitor + PmiGuard wired straight to a Topa (no FlowGuardKernel):
 *  the smallest harness that exercises the PMI checking path. */
struct PmiHarness
{
    workloads::SyntheticApp app;
    analysis::TypeArmorInfo ta;
    analysis::Cfg cfg;
    analysis::ItcCfg itc;
    Monitor monitor;
    trace::Topa topa;
    trace::IptEncoder encoder;
    PmiGuard guard;

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
          encoder(trace::IptConfig{}, topa),
          guard(app.program.cr3(), monitor, encoder, topa)
    {
        topa.setPmiServiceLatency(latency_bytes);
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
    EXPECT_GE(harness.guard.pmiCount(), 2u);
    EXPECT_EQ(harness.topa.overflowEpisodes(), 0u);
    EXPECT_FALSE(harness.guard.violationPending());
    EXPECT_EQ(harness.monitor.stats().lossWindows, 0u);
}

TEST(PmiOverflow, FailClosedConvictsLossyWindow)
{
    PmiHarness harness(LossPolicy::FailClosed, /*latency=*/512);
    harness.runBenign(21);
    ASSERT_GE(harness.topa.overflowEpisodes(), 2u);
    EXPECT_TRUE(harness.guard.violationPending());
    ViolationReport report;
    ASSERT_TRUE(harness.guard.consumePendingKill(
        harness.app.program.cr3(), report));
    EXPECT_EQ(report.kind, ViolationReport::Kind::TraceLoss);
    EXPECT_EQ(report.reason, "PMI window: trace loss (fail-closed policy)");
    EXPECT_FALSE(harness.guard.violationPending());
    const auto &stats = harness.monitor.stats();
    EXPECT_GE(stats.lossWindows, 1u);
    EXPECT_GE(stats.lossViolations, 1u);
    EXPECT_GE(stats.overflows, 1u);
}

TEST(PmiOverflow, LogAndPassOnlyAudits)
{
    PmiHarness harness(LossPolicy::LogAndPass, /*latency=*/512);
    EXPECT_EQ(harness.runBenign(21), cpu::Cpu::Stop::Halted);
    ASSERT_GE(harness.topa.overflowEpisodes(), 2u);
    EXPECT_FALSE(harness.guard.violationPending());
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
    EXPECT_FALSE(harness.guard.violationPending());
    const auto &stats = harness.monitor.stats();
    EXPECT_GE(stats.lossWindows, 1u);
    EXPECT_GE(stats.lossEscalations, 1u);
    EXPECT_GE(stats.slowChecks, stats.lossEscalations);
    EXPECT_EQ(stats.lossViolations, 0u);
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

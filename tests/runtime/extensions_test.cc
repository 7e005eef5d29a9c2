/**
 * @file
 * Tests for the §6/§7.1.2 extensions: PMI-based periodic checking,
 * path-sensitive fast checking, the CET baseline model and the COOP
 * attack, the multi-process machine, and profile serialization.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "analysis/path_index.hh"
#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "core/flowguard.hh"
#include "core/profile_io.hh"
#include "cpu/machine.hh"
#include "isa/syscalls.hh"
#include "runtime/cet.hh"
#include "support/logging.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;

workloads::ServerSpec
vulnSpec()
{
    auto spec = workloads::serverSuite(/*implant_vuln=*/true)[0];
    spec.workPerRequest = 100;
    return spec;
}

// --- PathIndex --------------------------------------------------------------

TEST(PathIndex, ObserveAndCover)
{
    analysis::PathIndex index;
    index.observe({1, 2, 3, 4});
    EXPECT_EQ(index.size(), 2u);        // (1,2,3) and (2,3,4)
    EXPECT_TRUE(index.covers({1, 2, 3}));
    EXPECT_TRUE(index.covers({2, 3, 4}));
    EXPECT_TRUE(index.covers({1, 2, 3, 4}));
    EXPECT_FALSE(index.covers({3, 2, 1}));      // order matters
    EXPECT_FALSE(index.covers({1, 2, 4}));
    EXPECT_TRUE(index.covers({1, 2}));          // too short: vacuous
}

TEST(PathIndex, MimicryReorderingRejected)
{
    // Both edges (A,B) and (B,C) and (C,B), (B,A) trained, but the
    // n-gram (C,B,A) only appears if that ordering was observed.
    analysis::PathIndex index;
    index.observe({10, 20, 30});
    EXPECT_FALSE(index.covers({30, 20, 10}));
    index.observe({30, 20, 10});
    EXPECT_TRUE(index.covers({30, 20, 10}));
}

TEST(PathIndex, PathSensitiveModeRaisesSlowRateButNoFalseKills)
{
    auto spec = vulnSpec();
    auto app = workloads::buildServerApp(spec);

    FlowGuardConfig plain_config;
    FlowGuard plain(app.program, plain_config);
    plain.analyze();
    FlowGuardConfig path_config;
    path_config.pathSensitive = true;
    FlowGuard pathy(app.program, path_config);
    pathy.analyze();
    ASSERT_NE(pathy.paths(), nullptr);

    std::vector<fuzz::Input> corpus;
    for (uint64_t seed = 1; seed <= 6; ++seed)
        corpus.push_back(workloads::makeBenignStream(
            8, seed, spec.numHandlers, spec.numParserStates));
    plain.trainWithCorpus(corpus);
    pathy.trainWithCorpus(corpus);
    EXPECT_GT(pathy.paths()->size(), 100u);

    auto load = workloads::makeBenignStream(
        12, 99, spec.numHandlers, spec.numParserStates);
    auto plain_run = plain.run(load);
    auto path_run = pathy.run(load);
    EXPECT_FALSE(plain_run.attackDetected);
    EXPECT_FALSE(path_run.attackDetected);
    EXPECT_EQ(path_run.stop, cpu::Cpu::Stop::Halted);
    // Path sensitivity can only add slow-path deferrals.
    EXPECT_GE(path_run.monitor.slowChecks,
              plain_run.monitor.slowChecks);
}

// --- PMI checking ------------------------------------------------------------

TEST(Pmi, PeriodicCheckingCatchesAttacksWithoutEndpoints)
{
    auto spec = vulnSpec();
    auto app = workloads::buildServerApp(spec);
    // The minimal hijack repairs the stack perfectly and resumes
    // normal service — exactly the endpoint-pruning scenario: the
    // attacker's own flow triggers no checked syscall, but execution
    // continues long enough for a buffer-full PMI to sweep the
    // window containing the violating transfer.
    auto attack = attacks::buildMinimalHijackAttack(app.program);
    auto input = attack.request;
    for (int i = 0; i < 6; ++i) {
        auto benign = workloads::makeBenignStream(
            1, 60 + static_cast<uint64_t>(i), spec.numHandlers,
            spec.numParserStates);
        input.insert(input.end(), benign.begin(), benign.end());
    }

    // Endpoint-pruned configuration: no syscall is checked at all —
    // only the PMI fallback is active.
    FlowGuardConfig config;
    config.endpoints.clear();
    config.pmiChecking = true;
    config.topaRegions = {512, 512};    // frequent buffer-full PMIs
    config.psbPeriodBytes = 128;        // sync points inside regions
    FlowGuard guard(app.program, config);
    guard.analyze();
    guard.trainWithCorpus({workloads::makeBenignStream(
        6, 1, spec.numHandlers, spec.numParserStates)});

    auto outcome = guard.run(input);
    EXPECT_TRUE(outcome.attackDetected);

    // And without PMI checking, the pruned-endpoint config misses it.
    FlowGuardConfig pruned;
    pruned.endpoints.clear();
    FlowGuard blind(app.program, pruned);
    blind.analyze();
    auto missed = blind.run(input);
    EXPECT_FALSE(missed.attackDetected);
}

TEST(Pmi, GotOverwritePrunesItsOwnEndpoint)
{
    auto spec = vulnSpec();
    auto app = workloads::buildServerApp(spec);
    auto attack = attacks::buildGotOverwriteAttack(app.program);
    auto input = attack.request;
    for (uint64_t i = 0; i < 4; ++i) {
        auto filler = workloads::makeBenignStream(
            1, 70 + i, spec.numHandlers, spec.numParserStates);
        input.insert(input.end(), filler.begin(), filler.end());
    }
    std::vector<fuzz::Input> corpus{workloads::makeBenignStream(
        6, 1, spec.numHandlers, spec.numParserStates)};

    // Default configuration: the write endpoint the attack would
    // have hit no longer fires — missed, and the server runs on.
    FlowGuard plain(app.program);
    plain.analyze();
    plain.trainWithCorpus(corpus);
    auto missed = plain.run(input);
    EXPECT_FALSE(missed.attackDetected);
    EXPECT_EQ(missed.stop, cpu::Cpu::Stop::Halted);

    // The corruption really suppressed the responses: only request 1
    // (before the GOT flip took effect... which happens during its
    // own handling) — no write output at all.
    EXPECT_TRUE(missed.output.empty());

    // PMI mode sweeps the buffer regardless of syscalls: caught.
    FlowGuardConfig config;
    config.pmiChecking = true;
    config.topaRegions = {512, 512};
    config.psbPeriodBytes = 128;
    FlowGuard pmi(app.program, config);
    pmi.analyze();
    pmi.trainWithCorpus(corpus);
    auto caught = pmi.run(input);
    EXPECT_TRUE(caught.attackDetected);
}

TEST(Pmi, BenignTrafficSurvivesPmiMode)
{
    auto spec = vulnSpec();
    auto app = workloads::buildServerApp(spec);
    FlowGuardConfig config;
    config.pmiChecking = true;
    config.topaRegions = {512, 512};
    config.psbPeriodBytes = 128;
    FlowGuard guard(app.program, config);
    guard.analyze();
    guard.trainWithCorpus({workloads::makeBenignStream(
        8, 1, spec.numHandlers, spec.numParserStates)});
    auto outcome = guard.run(workloads::makeBenignStream(
        10, 50, spec.numHandlers, spec.numParserStates));
    EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Halted);
    EXPECT_FALSE(outcome.attackDetected);
    EXPECT_GT(outcome.monitor.checks, 10u);   // PMI windows checked
}

// --- CET model and COOP ------------------------------------------------------

TEST(Cet, CatchesRopMissesCoop)
{
    auto spec = vulnSpec();
    auto app = workloads::buildServerApp(spec);
    auto catalog = attacks::scanGadgets(app.program);

    auto run_with_cet = [&](const std::vector<uint8_t> &input) {
        runtime::CetMonitor cet(app.program);
        cpu::Cpu cpu(app.program);
        cpu::BasicKernel kernel;
        kernel.setInput(input);
        cpu.setSyscallHandler(&kernel);
        cpu.addTraceSink(&cet);
        cpu.run(20'000'000);
        return cet.violated();
    };

    auto rop = attacks::buildRopWriteAttack(app.program, catalog);
    EXPECT_TRUE(run_with_cet(rop.request));

    auto coop = attacks::buildCoopAttack(app.program);
    EXPECT_FALSE(run_with_cet(coop.request));

    // Benign traffic never trips CET either.
    EXPECT_FALSE(run_with_cet(workloads::makeBenignStream(
        8, 3, spec.numHandlers, spec.numParserStates)));
}

TEST(Cet, CoopActuallyReachesDisabledFunctionality)
{
    auto spec = vulnSpec();
    auto app = workloads::buildServerApp(spec);
    auto coop = attacks::buildCoopAttack(app.program);

    // Unprotected: the corrupted dispatch really lands in
    // maintenance_mode (observe the retired branch).
    struct Recorder : cpu::TraceSink
    {
        uint64_t target;
        bool hit = false;
        void
        onBranch(const cpu::BranchEvent &event) override
        {
            hit |= event.kind == cpu::BranchKind::IndirectCall &&
                   event.target == target;
        }
    } recorder;
    recorder.target =
        app.program.funcAddr(app.name, "maintenance_mode");

    cpu::Cpu cpu(app.program);
    cpu::BasicKernel kernel;
    kernel.setInput(coop.request);
    cpu.setSyscallHandler(&kernel);
    cpu.addTraceSink(&recorder);
    EXPECT_EQ(cpu.run(20'000'000), cpu::Cpu::Stop::Halted);
    EXPECT_TRUE(recorder.hit);
}

TEST(Cet, FlowGuardCatchesCoop)
{
    auto spec = vulnSpec();
    auto app = workloads::buildServerApp(spec);
    auto coop = attacks::buildCoopAttack(app.program);

    FlowGuard guard(app.program);
    guard.analyze();
    std::vector<fuzz::Input> corpus;
    for (uint64_t seed = 1; seed <= 6; ++seed)
        corpus.push_back(workloads::makeBenignStream(
            8, seed, spec.numHandlers, spec.numParserStates));
    guard.trainWithCorpus(corpus);
    auto outcome = guard.run(coop.request);
    EXPECT_TRUE(outcome.attackDetected);
    EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Killed);
}

// --- Machine ---------------------------------------------------------------

TEST(Machine, RoundRobinRunsAllToCompletion)
{
    auto spec = vulnSpec();
    spec.implantVuln = false;
    auto spec2 = spec;
    spec2.cr3 = spec.cr3 + 1;
    auto app1 = workloads::buildServerApp(spec);
    auto app2 = workloads::buildServerApp(spec2);

    cpu::Cpu cpu1(app1.program), cpu2(app2.program);
    cpu::BasicKernel k1, k2;
    k1.setInput(workloads::makeBenignStream(
        3, 1, spec.numHandlers, spec.numParserStates));
    k2.setInput(workloads::makeBenignStream(
        3, 2, spec.numHandlers, spec.numParserStates));
    cpu1.setSyscallHandler(&k1);
    cpu2.setSyscallHandler(&k2);

    std::vector<uint64_t> switch_log;
    cpu::Machine machine;
    machine.addProcess(cpu1);
    machine.addProcess(cpu2);
    machine.setQuantum(2'000);
    machine.setSwitchCallback(
        [&](uint64_t cr3) { switch_log.push_back(cr3); });
    auto result = machine.run();
    EXPECT_TRUE(result.allHalted);
    EXPECT_GT(result.contextSwitches, 4u);
    EXPECT_EQ(result.instructions,
              cpu1.instCount() + cpu2.instCount());
    // Switch callback alternates CR3s.
    ASSERT_GE(switch_log.size(), 3u);
    EXPECT_NE(switch_log[0], switch_log[1]);
}

TEST(Machine, GlobalBudgetStopsEarly)
{
    auto spec = vulnSpec();
    spec.implantVuln = false;
    auto app = workloads::buildServerApp(spec);
    cpu::Cpu cpu(app.program);
    cpu::BasicKernel kernel;
    kernel.setInput(workloads::makeBenignStream(
        50, 1, spec.numHandlers, spec.numParserStates));
    cpu.setSyscallHandler(&kernel);
    cpu::Machine machine;
    machine.addProcess(cpu);
    auto result = machine.run(10'000);
    EXPECT_FALSE(result.allHalted);
    EXPECT_EQ(result.instructions, 10'000u);
}

// --- profile serialization ---------------------------------------------------

TEST(ProfileIo, RoundTripsCreditsAndTnt)
{
    auto spec = vulnSpec();
    auto app = workloads::buildServerApp(spec);

    FlowGuardConfig config;
    config.pathSensitive = true;
    FlowGuard trained(app.program, config);
    trained.analyze();
    trained.trainWithCorpus({workloads::makeBenignStream(
        8, 1, spec.numHandlers, spec.numParserStates)});
    ASSERT_GT(trained.itc().highCreditCount(), 0u);

    std::stringstream buffer;
    saveProfile(trained, buffer);

    FlowGuard fresh(app.program, config);
    loadProfile(fresh, buffer);
    EXPECT_EQ(fresh.itc().highCreditCount(),
              trained.itc().highCreditCount());
    EXPECT_EQ(fresh.paths()->size(), trained.paths()->size());
    for (size_t e = 0; e < trained.itc().numEdges(); ++e) {
        const int64_t edge = static_cast<int64_t>(e);
        ASSERT_EQ(fresh.itc().highCredit(edge),
                  trained.itc().highCredit(edge));
        ASSERT_EQ(fresh.itc().tntVaried(edge),
                  trained.itc().tntVaried(edge));
        ASSERT_EQ(fresh.itc().tntSequences(edge),
                  trained.itc().tntSequences(edge));
    }

    // A loaded profile behaves like the trained guard.
    auto load = workloads::makeBenignStream(
        6, 40, spec.numHandlers, spec.numParserStates);
    auto a = trained.run(load);
    auto b = fresh.run(load);
    EXPECT_EQ(a.monitor.slowChecks, b.monitor.slowChecks);
}

TEST(ProfileIo, RejectsWrongProgram)
{
    auto spec = vulnSpec();
    auto app = workloads::buildServerApp(spec);
    auto other_spec = spec;
    other_spec.seed += 1;
    auto other = workloads::buildServerApp(other_spec);

    FlowGuard trained(app.program);
    trained.analyze();
    std::stringstream buffer;
    saveProfile(trained, buffer);

    FlowGuard victim(other.program);
    EXPECT_THROW(loadProfile(victim, buffer), SimError);
}

TEST(ProfileIo, RejectsGarbage)
{
    auto spec = vulnSpec();
    auto app = workloads::buildServerApp(spec);
    FlowGuard guard(app.program);
    std::stringstream buffer("not a profile at all");
    EXPECT_THROW(loadProfile(guard, buffer), SimError);
}

} // namespace

/**
 * @file
 * Tests for the training-phase edge labeling: replayed corpus inputs
 * raise exactly the exercised ITC edges to high credit and attach
 * their TNT sequences; replays run in lanes and leave what the
 * one-input-at-a-time reference (tests/ref/serial_trainer.hh) leaves,
 * never more lanes at once than the cap, and none while replays are
 * cheap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/cfg_builder.hh"
#include "analysis/itc_cfg.hh"
#include "core/flowguard.hh"
#include "core/profile_io.hh"
#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "fuzz/trainer.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"
#include "ref/serial_trainer.hh"
#include "trace/ipt.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;

/** Dispatches to handler[input byte]; handler 0 and 1 reachable. */
Program
dispatchProgram()
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.funcPtrTable("tbl", {"h0", "h1"});
    mod.dataBss("buf", 8);
    mod.function("h0", /*exported=*/false);
    mod.aluImm(AluOp::Add, 6, 1);
    mod.ret();
    mod.function("h1", /*exported=*/false);
    mod.cmpImm(6, 5);
    mod.jcc(Cond::Lt, "skip");
    mod.aluImm(AluOp::Add, 6, 2);
    mod.label("skip");
    mod.ret();
    mod.function("main");
    mod.movImm(0, 0);
    mod.movImmData(1, "buf");
    mod.movImm(2, 8);
    mod.syscall(static_cast<int64_t>(Syscall::Read));
    mod.movImmData(1, "buf");
    mod.load(3, 1, 0);
    mod.aluImm(AluOp::And, 3, 1);
    mod.aluImm(AluOp::Shl, 3, 3);
    mod.movImmData(4, "tbl");
    mod.alu(AluOp::Add, 4, 3);
    mod.load(5, 4, 0);
    mod.movImm(0, 1);
    mod.callInd(5);
    mod.halt();
    return Loader().addExecutable(mod.build()).link();
}

fuzz::RunTarget
runner(const Program &prog)
{
    return [&prog](const fuzz::Input &input, cpu::TraceSink *sink) {
        cpu::Cpu cpu(prog);
        cpu::BasicKernel kernel;
        kernel.setInput(input);
        cpu.setSyscallHandler(&kernel);
        if (sink)
            cpu.addTraceSink(sink);
        cpu.run(100'000);
    };
}

TEST(Trainer, LabelsExactlyExercisedEdges)
{
    Program prog = dispatchProgram();
    analysis::Cfg cfg = analysis::buildCfg(prog);
    analysis::ItcCfg itc = analysis::ItcCfg::build(cfg);
    ASSERT_EQ(itc.highCreditCount(), 0u);

    // Train only with inputs selecting h0.
    auto stats = fuzz::trainItcCfg(itc, runner(prog), {{0}, {2}, {4}});
    EXPECT_EQ(stats.inputsReplayed, 3u);
    EXPECT_GT(stats.transitionsSeen, 0u);
    EXPECT_EQ(stats.unknownTransitions, 0u);   // benign: §4.2 holds
    EXPECT_GT(stats.edgesLabeled, 0u);

    // h1 was never exercised: its outgoing return edge stays low.
    const uint64_t h1 = prog.funcAddr("m", "h1");
    const int h1_node = itc.findNode(h1);
    ASSERT_GE(h1_node, 0);
    ASSERT_GT(itc.outDegree(static_cast<size_t>(h1_node)), 0u);
    const int64_t h1_out = itc.findEdge(
        h1, *itc.targetsBegin(static_cast<size_t>(h1_node)));
    ASSERT_GE(h1_out, 0);
    EXPECT_FALSE(itc.highCredit(h1_out));

    // Re-training with identical inputs labels nothing new.
    auto again = fuzz::trainItcCfg(itc, runner(prog), {{0}});
    EXPECT_EQ(again.edgesLabeled, 0u);

    // Training h1 labels its edge too.
    fuzz::trainItcCfg(itc, runner(prog), {{1}});
    EXPECT_TRUE(itc.highCredit(h1_out));
}

TEST(Trainer, AttachesTntSequences)
{
    Program prog = dispatchProgram();
    analysis::Cfg cfg = analysis::buildCfg(prog);
    analysis::ItcCfg itc = analysis::ItcCfg::build(cfg);
    fuzz::trainItcCfg(itc, runner(prog), {{1}});   // h1: has a cond

    // Some labeled edge carries TNT info (h1 ret edge sees the
    // conditional outcome).
    bool tnt_found = false;
    for (size_t e = 0; e < itc.numEdges(); ++e)
        tnt_found |= itc.hasTntInfo(static_cast<int64_t>(e));
    EXPECT_TRUE(tnt_found);
}

TEST(Trainer, TargetWithoutTraceLabelsNothing)
{
    Program prog = dispatchProgram();
    analysis::Cfg cfg = analysis::buildCfg(prog);
    analysis::ItcCfg itc = analysis::ItcCfg::build(cfg);
    // The target never attaches the sink: the input leaves no trace.
    const fuzz::RunTarget silent = [](const fuzz::Input &,
                                      cpu::TraceSink *) {};
    auto stats = fuzz::trainItcCfg(itc, silent, {{0}});
    EXPECT_EQ(stats.inputsReplayed, 1u);
    EXPECT_EQ(stats.transitionsSeen, 0u);
    EXPECT_EQ(stats.edgesLabeled, 0u);
    EXPECT_EQ(itc.highCreditCount(), 0u);
}

/** Every TrainingStats counter agrees. */
void
expectSameStats(const fuzz::TrainingStats &got,
                const fuzz::TrainingStats &want)
{
    EXPECT_EQ(got.inputsReplayed, want.inputsReplayed);
    EXPECT_EQ(got.transitionsSeen, want.transitionsSeen);
    EXPECT_EQ(got.edgesLabeled, want.edgesLabeled);
    EXPECT_EQ(got.unknownTransitions, want.unknownTransitions);
    EXPECT_EQ(got.inputsTruncated, want.inputsTruncated);
}

/** Every edge's credit (trained, and with the runtime overlay), TNT
 *  list in order and varied marks, the trained n-grams and the profile
 *  bytes agree. */
void
expectSameTraining(const FlowGuard &got, const FlowGuard &want)
{
    const analysis::ItcCfg &a = got.itc();
    const analysis::ItcCfg &b = want.itc();
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (size_t e = 0; e < a.numEdges(); ++e) {
        const auto edge = static_cast<int64_t>(e);
        ASSERT_EQ(a.trainedCredit(edge), b.trainedCredit(edge)) << e;
        ASSERT_EQ(a.highCredit(edge), b.highCredit(edge)) << e;
        ASSERT_EQ(a.tntVaried(edge), b.tntVaried(edge)) << e;
        ASSERT_EQ(a.trainedTntVaried(edge), b.trainedTntVaried(edge)) << e;
        ASSERT_EQ(a.tntSequences(edge), b.tntSequences(edge)) << e;
    }
    ASSERT_EQ(got.paths() != nullptr, want.paths() != nullptr);
    if (got.paths()) {
        EXPECT_EQ(got.paths()->trainedHashes(),
                  want.paths()->trainedHashes());
    }
    std::stringstream got_bytes;
    std::stringstream want_bytes;
    saveProfile(got, got_bytes);
    saveProfile(want, want_bytes);
    EXPECT_TRUE(got_bytes.str() == want_bytes.str());
}

/** Replays stop here: ~3 requests of a suite server. */
constexpr uint64_t suite_budget = 250'000;

/** A request whose payload runs over the vulnerable handler's buffer
 *  into its return address: the vulnerable nginx crashes on it. */
fuzz::Input
crashInput()
{
    return workloads::makeRequest(
        0, 0, std::vector<uint64_t>(6, 0x4141414141414141ULL));
}

/** `count` inputs: mostly one or two benign requests, every fifth the
 *  crash input and every fifth a stream that runs out of budget. */
std::vector<fuzz::Input>
suiteCorpus(const workloads::ServerSpec &spec, size_t count)
{
    std::vector<fuzz::Input> corpus;
    for (size_t k = 0; k < count; ++k) {
        if (k % 5 == 1)
            corpus.push_back(crashInput());
        else
            corpus.push_back(workloads::makeBenignStream(
                k % 5 == 3 ? 8 : 1 + k % 2, 7 + k, spec.numHandlers,
                spec.numParserStates));
    }
    return corpus;
}

FlowGuard
suiteGuard(const isa::Program &program, bool path_sensitive)
{
    FlowGuardConfig config;
    config.pathSensitive = path_sensitive;
    config.fuzzRunMaxInsts = suite_budget;
    FlowGuard guard(program, config);
    guard.analyze();
    return guard;
}

cpu::Cpu::Stop
stopOf(const isa::Program &program, const fuzz::Input &input)
{
    cpu::Cpu cpu(program);
    cpu::BasicKernel kernel;
    kernel.setInput(input);
    cpu.setSyscallHandler(&kernel);
    return cpu.run(suite_budget);
}

TEST(Trainer, LanesLabelLikeTheSerialReference)
{
    // 5 is one more than the most lanes (four); 61 inputs keep every
    // lane busy for many rounds.
    const std::vector<size_t> sizes = {1, 2, 5, 61};
    for (const auto &spec : workloads::serverSuite(/*implant_vuln=*/true)) {
        const workloads::SyntheticApp app = workloads::buildServerApp(spec);
        // The corpora hold what they say they hold.
        const std::vector<fuzz::Input> probe = suiteCorpus(spec, 5);
        ASSERT_EQ(stopOf(app.program, probe[3]),
                  cpu::Cpu::Stop::InstLimit) << spec.name;
        ASSERT_EQ(stopOf(app.program, probe[0]), cpu::Cpu::Stop::Halted)
            << spec.name;
        if (spec.implantVuln) {
            ASSERT_EQ(stopOf(app.program, probe[1]),
                      cpu::Cpu::Stop::Fault);
        }

        for (const bool path_sensitive : {false, true}) {
            for (const size_t size : sizes) {
                SCOPED_TRACE(spec.name + (path_sensitive ? " paths " : " ") +
                             std::to_string(size));
                const std::vector<fuzz::Input> corpus =
                    suiteCorpus(spec, size);
                FlowGuard lanes = suiteGuard(app.program, path_sensitive);
                FlowGuard serial = suiteGuard(app.program, path_sensitive);
                const fuzz::TrainingStats got = fuzz::trainItcCfg(
                    lanes.itc(), lanes.defaultRunner(), corpus,
                    lanes.mutablePaths());
                const fuzz::TrainingStats want = test::ref::trainItcCfgSerially(
                    serial.itc(), serial.defaultRunner(), corpus,
                    serial.mutablePaths());
                EXPECT_EQ(got.inputsReplayed, size);
                expectSameStats(got, want);
                expectSameTraining(lanes, serial);
            }
        }

        // Training on top of runtime credit: the run taught both graphs
        // the same overlay first.
        const std::vector<fuzz::Input> corpus = suiteCorpus(spec, 61);
        const std::vector<uint8_t> load = workloads::makeBenignStream(
            6, 99, spec.numHandlers, spec.numParserStates);
        FlowGuard lanes = suiteGuard(app.program, true);
        FlowGuard serial = suiteGuard(app.program, true);
        ASSERT_GT(lanes.run(load).monitor.slowChecks, 0u) << spec.name;
        serial.run(load);
        expectSameStats(
            fuzz::trainItcCfg(lanes.itc(), lanes.defaultRunner(), corpus,
                              lanes.mutablePaths()),
            test::ref::trainItcCfgSerially(serial.itc(),
                                           serial.defaultRunner(), corpus,
                                           serial.mutablePaths()));
        expectSameTraining(lanes, serial);
    }
}

TEST(Trainer, FailedReplayIsRethrownAfterTheInputsBeforeIt)
{
    const workloads::ServerSpec spec = workloads::serverSuite()[0];
    const workloads::SyntheticApp app = workloads::buildServerApp(spec);
    std::vector<fuzz::Input> corpus = suiteCorpus(spec, 12);
    corpus[7].clear();   // the target refuses an empty input
    const auto failing = [](const fuzz::RunTarget &run) {
        return [run](const fuzz::Input &input, cpu::TraceSink *sink) {
            if (input.empty())
                throw std::runtime_error("empty input");
            run(input, sink);
        };
    };

    FlowGuard lanes = suiteGuard(app.program, true);
    FlowGuard serial = suiteGuard(app.program, true);
    EXPECT_THROW(fuzz::trainItcCfg(lanes.itc(),
                                   failing(lanes.defaultRunner()), corpus,
                                   lanes.mutablePaths()),
                 std::runtime_error);
    EXPECT_THROW(test::ref::trainItcCfgSerially(
                     serial.itc(), failing(serial.defaultRunner()), corpus,
                     serial.mutablePaths()),
                 std::runtime_error);
    EXPECT_GT(lanes.itc().highCreditCount(), 0u);
    expectSameTraining(lanes, serial);
}

TEST(Trainer, NeverReplaysMoreInputsThanLanesAtOnce)
{
    const workloads::ServerSpec spec = workloads::serverSuite()[0];
    const workloads::SyntheticApp app = workloads::buildServerApp(spec);
    const std::vector<fuzz::Input> corpus = suiteCorpus(spec, 24);
    std::atomic<size_t> in_flight{0};
    std::atomic<size_t> most{0};
    const auto counted = [&](const fuzz::RunTarget &run) {
        return [&, run](const fuzz::Input &input, cpu::TraceSink *sink) {
            const size_t now = ++in_flight;
            size_t seen = most.load();
            while (seen < now && !most.compare_exchange_weak(seen, now)) {
            }
            // Every replay outlasts the cost that starts lanes.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            run(input, sink);
            --in_flight;
        };
    };

    FlowGuard lanes = suiteGuard(app.program, true);
    FlowGuard serial = suiteGuard(app.program, true);
    const fuzz::TrainingStats got = fuzz::trainItcCfg(
        lanes.itc(), counted(lanes.defaultRunner()), corpus,
        lanes.mutablePaths());
    const fuzz::TrainingStats want = test::ref::trainItcCfgSerially(
        serial.itc(), serial.defaultRunner(), corpus,
        serial.mutablePaths());
    // Each lane holds a ring and a decode (~1 MB resident), so the lane
    // count bounds what training holds at once.
    const size_t cap = std::min<size_t>(
        std::max(std::thread::hardware_concurrency(), 1u), 4);
    EXPECT_LE(most.load(), cap);
    EXPECT_EQ(in_flight.load(), 0u);
    EXPECT_EQ(got.inputsReplayed, corpus.size());
    expectSameStats(got, want);
    expectSameTraining(lanes, serial);
}

TEST(Trainer, CheapReplaysStayOnTheCallingThread)
{
    Program prog = dispatchProgram();
    analysis::ItcCfg itc =
        analysis::ItcCfg::build(analysis::buildCfg(prog));
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<size_t> calls{0};
    std::atomic<size_t> elsewhere{0};
    const fuzz::RunTarget cheap = [&](const fuzz::Input &,
                                      cpu::TraceSink *) {
        ++calls;
        if (std::this_thread::get_id() != caller)
            ++elsewhere;
    };
    const std::vector<fuzz::Input> corpus(50, fuzz::Input{0});
    const fuzz::TrainingStats stats = fuzz::trainItcCfg(itc, cheap, corpus);
    EXPECT_EQ(stats.inputsReplayed, 50u);
    EXPECT_EQ(calls.load(), 50u);
    EXPECT_EQ(elsewhere.load(), 0u);
}

TEST(Trainer, CountsInputsThatOutgrowTheRing)
{
    Program prog = dispatchProgram();
    analysis::Cfg cfg = analysis::buildCfg(prog);
    analysis::ItcCfg itc = analysis::ItcCfg::build(cfg);
    analysis::ItcCfg serial_itc = analysis::ItcCfg::build(cfg);
    // Input byte 1 floods the sink with indirect calls until more than
    // the 4 MiB ring has been written; byte 0 runs the program.
    const fuzz::RunTarget run = runner(prog);
    const fuzz::RunTarget target = [&run](const fuzz::Input &input,
                                          cpu::TraceSink *sink) {
        if (input[0] == 0) {
            run(input, sink);
            return;
        }
        auto &encoder = dynamic_cast<trace::IptEncoder &>(*sink);
        cpu::BranchEvent event;
        event.kind = cpu::BranchKind::IndirectCall;
        event.source = 0x401000;
        for (uint64_t i = 0; encoder.stats().bytes <= (5u << 20); ++i) {
            event.target = (i % 2) ? 0x7f0000402000 : 0x403000;
            encoder.onBranch(event);
        }
    };
    const std::vector<fuzz::Input> corpus = {{1}, {0}, {1}, {1}, {0}};
    const fuzz::TrainingStats got = fuzz::trainItcCfg(itc, target, corpus);
    const fuzz::TrainingStats want =
        test::ref::trainItcCfgSerially(serial_itc, target, corpus);
    EXPECT_EQ(got.inputsReplayed, 5u);
    EXPECT_EQ(got.inputsTruncated, 3u);
    EXPECT_GT(got.edgesLabeled, 0u);
    expectSameStats(got, want);
    for (size_t e = 0; e < itc.numEdges(); ++e) {
        const auto edge = static_cast<int64_t>(e);
        EXPECT_EQ(itc.trainedCredit(edge), serial_itc.trainedCredit(edge));
        EXPECT_EQ(itc.tntSequences(edge), serial_itc.tntSequences(edge));
    }
}

} // namespace

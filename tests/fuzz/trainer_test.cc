/**
 * @file
 * Tests for the training-phase edge labeling: replayed corpus inputs
 * raise exactly the exercised ITC edges to high credit and attach
 * their TNT sequences.
 */

#include <gtest/gtest.h>

#include "analysis/cfg_builder.hh"
#include "analysis/itc_cfg.hh"
#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "fuzz/trainer.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"

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

} // namespace

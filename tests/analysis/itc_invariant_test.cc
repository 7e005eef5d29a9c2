/**
 * @file
 * Validates the §4.2 correctness argument on executable programs: for
 * any benign run, every pair of consecutive TIP packets corresponds
 * to an edge of the reconstructed ITC-CFG, and every TIP target is an
 * IT-BB entry. Also checks the O-CFG covers the concrete indirect
 * transfers the CPU retires (the no-false-positives property).
 */

#include <gtest/gtest.h>

#include "analysis/cfg_builder.hh"
#include "analysis/itc_cfg.hh"
#include "cpu/cpu.hh"
#include "decode/fast_decoder.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"
#include "trace/ipt.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;

/**
 * A program with an indirect dispatch table, a conditional loop, PLT
 * calls and returns — enough CoFI variety to exercise the
 * reconstruction.
 */
Program
buildDispatchProgram()
{
    ModuleBuilder lib("libutil", ModuleKind::SharedLib);
    lib.function("square");
    lib.alu(AluOp::Mul, 0, 0);
    lib.ret();
    lib.function("negate");
    lib.movImm(1, 0);
    lib.alu(AluOp::Sub, 1, 0);
    lib.alu(AluOp::Sub, 1, 0);
    lib.movReg(0, 1);
    lib.ret();

    ModuleBuilder exe("app", ModuleKind::Executable);
    exe.needs("libutil");

    exe.function("handler_a", /*exported=*/false);
    exe.aluImm(AluOp::Add, 0, 10);
    exe.ret();
    exe.function("handler_b", /*exported=*/false);
    exe.aluImm(AluOp::Mul, 0, 3);
    exe.ret();

    exe.funcPtrTable("handlers", {"handler_a", "handler_b"});

    exe.function("main");
    exe.movImm(5, 0);                   // loop counter
    exe.label("loop");
    exe.movImm(0, 4);                   // arg
    // Select handler by parity of counter.
    exe.movReg(6, 5);
    exe.aluImm(AluOp::And, 6, 1);
    exe.aluImm(AluOp::Shl, 6, 3);       // ×8 table stride
    exe.movImmData(7, "handlers");
    exe.alu(AluOp::Add, 7, 6);
    exe.load(8, 7, 0);
    exe.callInd(8);                     // indirect dispatch
    exe.callExt("square");              // PLT into the library
    exe.aluImm(AluOp::Add, 5, 1);
    exe.cmpImm(5, 6);
    exe.jcc(Cond::Lt, "loop");
    exe.halt();

    return Loader()
        .addExecutable(exe.build())
        .addLibrary(lib.build())
        .cr3(0x42)
        .link();
}

TEST(ItcInvariant, ConsecutiveTipsAreItcEdges)
{
    Program prog = buildDispatchProgram();
    cpu::Cpu cpu(prog);

    trace::Topa topa({1 << 16});
    trace::IptConfig config;
    config.cr3Filter = true;
    config.cr3Match = prog.cr3();
    trace::IptEncoder ipt(config, topa);
    cpu.addTraceSink(&ipt);
    ASSERT_EQ(cpu.run(100'000), cpu::Cpu::Stop::Halted);
    ipt.flushTnt();

    analysis::Cfg cfg = analysis::buildCfg(prog);
    analysis::ItcCfg itc = analysis::ItcCfg::build(cfg);
    ASSERT_GT(itc.numNodes(), 0u);
    ASSERT_GT(itc.numEdges(), 0u);

    auto bytes = topa.snapshot();
    decode::TraceCursor cursor;
    const auto &flow = cursor.decode(trace::StreamView{bytes}, SIZE_MAX);
    ASSERT_FALSE(flow.malformed);

    uint64_t prev_tip = 0;
    size_t pairs = 0;
    for (const auto &step : flow.steps) {
        if (step.kind != decode::StepKind::Tip)
            continue;
        EXPECT_GE(itc.findNode(step.ip), 0)
            << "TIP target 0x" << std::hex << step.ip
            << " is not an IT-BB";
        if (prev_tip != 0) {
            EXPECT_GE(itc.findEdge(prev_tip, step.ip), 0)
                << std::hex << "missing ITC edge 0x" << prev_tip
                << " -> 0x" << step.ip;
            ++pairs;
        }
        prev_tip = step.ip;
    }
    EXPECT_GT(pairs, 10u);
}

TEST(ItcInvariant, OcfgCoversConcreteIndirectTransfers)
{
    Program prog = buildDispatchProgram();
    analysis::Cfg cfg = analysis::buildCfg(prog);

    struct Recorder : cpu::TraceSink
    {
        std::vector<cpu::BranchEvent> events;
        void
        onBranch(const cpu::BranchEvent &event) override
        {
            events.push_back(event);
        }
    } recorder;

    cpu::Cpu cpu(prog);
    cpu.addTraceSink(&recorder);
    ASSERT_EQ(cpu.run(100'000), cpu::Cpu::Stop::Halted);

    for (const auto &event : recorder.events) {
        bool indirect = event.kind == cpu::BranchKind::IndirectCall ||
                        event.kind == cpu::BranchKind::IndirectJump ||
                        event.kind == cpu::BranchKind::Return;
        if (!indirect)
            continue;
        auto from = cfg.blockContaining(event.source);
        auto to = cfg.blockAt(event.target);
        ASSERT_TRUE(from.has_value());
        ASSERT_TRUE(to.has_value());
        bool found = false;
        for (uint32_t e : cfg.outEdges(*from)) {
            const analysis::Edge &edge = cfg.edges()[e];
            if (edge.to == *to &&
                analysis::edgeIsIndirect(edge.kind)) {
                found = true;
                break;
            }
        }
        EXPECT_TRUE(found)
            << std::hex << "O-CFG misses indirect edge 0x"
            << event.source << " -> 0x" << event.target;
    }
}

TEST(ItcInvariant, TypeArmorNarrowsDispatch)
{
    Program prog = buildDispatchProgram();
    analysis::TypeArmorInfo ta = analysis::analyzeTypeArmor(prog);
    // handler_a / handler_b are address-taken via the table; square
    // via its GOT slot. negate is never referenced anywhere, so a
    // conservative analysis must still exclude it.
    size_t taken = 0;
    for (bool b : ta.addressTaken)
        taken += b;
    EXPECT_EQ(taken, 3u);
    const auto &funcs = prog.functions();
    for (size_t f = 0; f < funcs.size(); ++f) {
        if (funcs[f].name == "negate") {
            EXPECT_FALSE(ta.addressTaken[f]);
        }
        if (funcs[f].name == "square" ||
            funcs[f].name == "handler_a") {
            EXPECT_TRUE(ta.addressTaken[f]);
        }
    }
}

} // namespace

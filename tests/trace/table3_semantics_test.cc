/**
 * @file
 * Parameterized reproduction of the paper's Table 3: every CoFI class
 * maps to exactly its specified IPT output — no output for direct
 * transfers, TNT for conditionals, TIP for indirect branches and
 * near returns, FUP+TIP(PGD/PGE) for far transfers.
 */

#include <gtest/gtest.h>

#include "cpu/cpu.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"
#include "trace/ipt.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;

struct Table3Row
{
    const char *name;
    cpu::BranchKind kind;
    uint64_t expectTnt;     // TNT bits emitted
    uint64_t expectTip;     // plain TIP packets
    uint64_t expectFup;     // FUP packets
};

/** Names the test after its row ("near_ret"). Without it the test ID
 *  is a byte dump of the row, whose first field is a pointer, so it
 *  changes from one test discovery to the next. */
void
PrintTo(const Table3Row &row, std::ostream *os)
{
    for (const char *c = row.name; *c; ++c)
        *os << (*c == ' ' || *c == '-' ? '_' : *c);
}

class Table3Semantics : public ::testing::TestWithParam<Table3Row>
{};

TEST_P(Table3Semantics, CofiToPacketMapping)
{
    const auto &row = GetParam();

    trace::Topa topa({4096});
    trace::IptConfig config;
    config.psbPeriodBytes = 1 << 30;
    trace::IptEncoder encoder(config, topa);

    // Establish the tracing context with one indirect jump, then
    // deliver the row's event and compare deltas.
    encoder.onBranch({cpu::BranchKind::IndirectJump, 0x400000,
                      0x400100, 0});
    encoder.flushTnt();
    const auto before = encoder.stats();

    encoder.onBranch({row.kind, 0x400100, 0x400200, 0});
    encoder.flushTnt();
    const auto after = encoder.stats();

    EXPECT_EQ(after.tntBits - before.tntBits, row.expectTnt)
        << row.name;
    EXPECT_EQ(after.tipPackets - before.tipPackets, row.expectTip)
        << row.name;
    EXPECT_EQ(after.fupPackets - before.fupPackets, row.expectFup)
        << row.name;
}

INSTANTIATE_TEST_SUITE_P(
    Table3, Table3Semantics,
    ::testing::Values(
        Table3Row{"direct jmp", cpu::BranchKind::DirectJump, 0, 0, 0},
        Table3Row{"direct call", cpu::BranchKind::DirectCall, 0, 0, 0},
        Table3Row{"cond taken", cpu::BranchKind::CondTaken, 1, 0, 0},
        Table3Row{"cond not-taken", cpu::BranchKind::CondNotTaken, 1,
                  0, 0},
        Table3Row{"indirect jmp", cpu::BranchKind::IndirectJump, 0, 1,
                  0},
        Table3Row{"indirect call", cpu::BranchKind::IndirectCall, 0,
                  1, 0},
        Table3Row{"near ret", cpu::BranchKind::Return, 0, 1, 0},
        Table3Row{"far transfer", cpu::BranchKind::SyscallEntry, 0, 0,
                  1}));

TEST(Table3Semantics, WholeProgramPacketBudget)
{
    // Less than one bit of trace per retired instruction on average
    // (§2's headline compression claim) on branch-typical code.
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImm(1, 0);
    mod.label("loop");
    for (int i = 0; i < 10; ++i)
        mod.aluImm(AluOp::Add, 2, 3 + i);
    mod.aluImm(AluOp::Xor, 3, 5);
    mod.load(4, 14, -64);
    // Call a leaf every 4th iteration, like straight-line compute
    // code with occasional helpers.
    mod.movReg(5, 1);
    mod.aluImm(AluOp::And, 5, 3);
    mod.cmpImm(5, 0);
    mod.jcc(Cond::Ne, "no_call");
    mod.call("leaf");
    mod.label("no_call");
    mod.aluImm(AluOp::Add, 1, 1);
    mod.cmpImm(1, 2000);
    mod.jcc(Cond::Lt, "loop");
    mod.halt();
    mod.function("leaf");
    mod.cmpImm(2, 100);
    mod.jcc(Cond::Gt, "skip");
    mod.aluImm(AluOp::Add, 2, 1);
    mod.label("skip");
    mod.ret();
    Program prog = Loader().addExecutable(mod.build()).link();

    trace::Topa topa({1 << 20});
    trace::IptEncoder encoder(trace::IptConfig{}, topa);
    cpu::Cpu cpu(prog);
    cpu.addTraceSink(&encoder);
    ASSERT_EQ(cpu.run(1'000'000), cpu::Cpu::Stop::Halted);
    encoder.flushTnt();

    const double bits_per_inst =
        8.0 * static_cast<double>(encoder.stats().bytes) /
        static_cast<double>(cpu.instCount());
    EXPECT_LT(bits_per_inst, 1.0);
    EXPECT_GT(bits_per_inst, 0.01);
}

} // namespace

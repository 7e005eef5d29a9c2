/**
 * @file
 * Unit tests for the CPU interpreter: every ALU operation, every
 * branch condition, stack discipline, fault semantics (DEP, wild
 * branches), syscall actions and retirement accounting.
 */

#include <gtest/gtest.h>

#include "cpu/cpu.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;

Program
link(ModuleBuilder &&mod)
{
    return Loader().addExecutable(std::move(mod).build()).link();
}

// --- ALU semantics ----------------------------------------------------------

struct AluCase
{
    AluOp op;
    uint64_t a, b, expected;
};

/** Names the test after its case ("sub_5_7"). Without it the test ID
 *  is a byte dump that includes the struct's uninitialised padding,
 *  so it changes from one test discovery to the next. */
void
PrintTo(const AluCase &c, std::ostream *os)
{
    *os << aluOpName(c.op) << "_" << c.a << "_" << c.b;
}

class AluSemantics : public ::testing::TestWithParam<AluCase>
{};

TEST_P(AluSemantics, RegisterForm)
{
    const auto &c = GetParam();
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImm(1, static_cast<int64_t>(c.a));
    mod.movImm(2, static_cast<int64_t>(c.b));
    mod.alu(c.op, 1, 2);
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(1), c.expected) << aluOpName(c.op);
}

TEST_P(AluSemantics, ImmediateForm)
{
    const auto &c = GetParam();
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImm(1, static_cast<int64_t>(c.a));
    mod.aluImm(c.op, 1, static_cast<int64_t>(c.b));
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(1), c.expected) << aluOpName(c.op);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluSemantics,
    ::testing::Values(AluCase{AluOp::Add, 7, 5, 12},
                      AluCase{AluOp::Sub, 7, 5, 2},
                      AluCase{AluOp::Sub, 5, 7,
                              static_cast<uint64_t>(-2)},
                      AluCase{AluOp::Mul, 7, 5, 35},
                      AluCase{AluOp::Xor, 0b1100, 0b1010, 0b0110},
                      AluCase{AluOp::And, 0b1100, 0b1010, 0b1000},
                      AluCase{AluOp::Or, 0b1100, 0b1010, 0b1110},
                      AluCase{AluOp::Shl, 3, 4, 48},
                      AluCase{AluOp::Shr, 48, 4, 3}));

// --- conditions --------------------------------------------------------------

struct CondCase
{
    Cond cond;
    int64_t a, b;
    bool taken;
};

/** Names the test after its case ("lt_4_5_taken"). Without it the
 *  test ID is a byte dump that includes the struct's uninitialised
 *  padding, so it changes from one test discovery to the next. */
void
PrintTo(const CondCase &c, std::ostream *os)
{
    *os << condName(c.cond) << "_" << c.a << "_" << c.b
        << (c.taken ? "_taken" : "_not_taken");
}

class CondSemantics : public ::testing::TestWithParam<CondCase>
{};

TEST_P(CondSemantics, JccFollowsComparison)
{
    const auto &c = GetParam();
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImm(1, c.a);
    mod.movImm(2, c.b);
    mod.cmp(1, 2);
    mod.jcc(c.cond, "taken_path");
    mod.movImm(0, 100);    // fallthrough marker
    mod.halt();
    mod.label("taken_path");
    mod.movImm(0, 200);    // taken marker
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(0), c.taken ? 200u : 100u)
        << condName(c.cond) << " " << c.a << " vs " << c.b;
    // Branch stats recorded the right outcome.
    using cpu::BranchKind;
    EXPECT_EQ(cpu.branchStats()[BranchKind::CondTaken],
              c.taken ? 1u : 0u);
    EXPECT_EQ(cpu.branchStats()[BranchKind::CondNotTaken],
              c.taken ? 0u : 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllConds, CondSemantics,
    ::testing::Values(CondCase{Cond::Eq, 5, 5, true},
                      CondCase{Cond::Eq, 5, 6, false},
                      CondCase{Cond::Ne, 5, 6, true},
                      CondCase{Cond::Ne, 5, 5, false},
                      CondCase{Cond::Lt, 4, 5, true},
                      CondCase{Cond::Lt, 5, 5, false},
                      CondCase{Cond::Ge, 5, 5, true},
                      CondCase{Cond::Ge, 4, 5, false},
                      CondCase{Cond::Gt, 6, 5, true},
                      CondCase{Cond::Gt, 5, 5, false},
                      CondCase{Cond::Le, 5, 5, true},
                      CondCase{Cond::Le, 6, 5, false}));

// --- stack and calls --------------------------------------------------------

TEST(Cpu, CallPushesReturnAddressRetPopsIt)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.call("leaf");
    mod.movImm(0, 11);      // must execute after return
    mod.halt();
    mod.function("leaf");
    mod.movImm(1, 22);
    mod.ret();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(0), 11u);
    EXPECT_EQ(cpu.reg(1), 22u);
    EXPECT_EQ(cpu.sp(), prog.stackTop());   // balanced
}

TEST(Cpu, NestedCallsUnwindInOrder)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.call("a");
    mod.aluImm(AluOp::Add, 0, 1);
    mod.halt();
    mod.function("a");
    mod.call("b");
    mod.aluImm(AluOp::Add, 0, 10);
    mod.ret();
    mod.function("b");
    mod.aluImm(AluOp::Add, 0, 100);
    mod.ret();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(0), 111u);
}

TEST(Cpu, CorruptedReturnAddressRedirectsControl)
{
    // The ROP primitive: overwrite the on-stack return address.
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.call("victim");
    mod.movImm(0, 1);       // skipped by the hijack
    mod.halt();
    mod.function("victim");
    mod.movImmFunc(3, "gadget");
    mod.store(14, 0, 3);    // overwrite [sp] = return address
    mod.ret();
    mod.function("gadget");
    mod.movImm(0, 99);
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(0), 99u);
}

// --- faults -------------------------------------------------------------------

TEST(Cpu, StoreToCodeFaultsDep)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImmFunc(1, "main");
    mod.store(1, 0, 2);     // write into code: W^X violation
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    EXPECT_EQ(cpu.run(100), cpu::Cpu::Stop::Fault);
    EXPECT_EQ(cpu.fault().kind, cpu::Cpu::FaultInfo::Kind::CodeWrite);
}

TEST(Cpu, IndirectBranchOutsideCodeFaults)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImm(1, 0x1234);
    mod.jmpInd(1);
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    EXPECT_EQ(cpu.run(100), cpu::Cpu::Stop::Fault);
    EXPECT_EQ(cpu.fault().kind, cpu::Cpu::FaultInfo::Kind::BadBranch);
    EXPECT_EQ(cpu.fault().addr, 0x1234u);
}

TEST(Cpu, ReturnToGarbageFaults)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.ret();      // pops a zero word
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    EXPECT_EQ(cpu.run(100), cpu::Cpu::Stop::Fault);
}

TEST(Cpu, InstLimitStopsWithoutFault)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.label("spin");
    mod.cmpImm(1, 0);
    mod.jcc(Cond::Eq, "spin");
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    EXPECT_EQ(cpu.run(1000), cpu::Cpu::Stop::InstLimit);
    EXPECT_EQ(cpu.instCount(), 1000u);
}

// --- syscalls -----------------------------------------------------------------

struct ScriptedKernel : cpu::SyscallHandler
{
    cpu::SyscallResult next;
    int64_t lastNumber = -1;

    cpu::SyscallResult
    onSyscall(cpu::Cpu &, int64_t number) override
    {
        lastNumber = number;
        return next;
    }
};

TEST(Cpu, SyscallContinueDeliversRetval)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.syscall(42);
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    ScriptedKernel kernel;
    kernel.next.retval = 1234;
    cpu.setSyscallHandler(&kernel);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(kernel.lastNumber, 42);
    EXPECT_EQ(cpu.reg(0), 1234u);
}

TEST(Cpu, SyscallExitStops)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.syscall(60);
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    ScriptedKernel kernel;
    kernel.next.action = cpu::SyscallResult::Action::Exit;
    kernel.next.retval = 5;
    cpu.setSyscallHandler(&kernel);
    EXPECT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.exitCode(), 5);
}

TEST(Cpu, SyscallKillStops)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.syscall(1);
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    ScriptedKernel kernel;
    kernel.next.action = cpu::SyscallResult::Action::Kill;
    cpu.setSyscallHandler(&kernel);
    EXPECT_EQ(cpu.run(100), cpu::Cpu::Stop::Killed);
}

TEST(Cpu, SyscallWithoutHandlerContinues)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.syscall(9);
    mod.movImm(1, 3);
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(1), 3u);
}

// --- accounting ----------------------------------------------------------------

TEST(Cpu, BranchStatsCoverKinds)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.cmpImm(1, 0);
    mod.jcc(Cond::Eq, "next");          // taken
    mod.label("next");
    mod.jmp("after");                   // direct jump
    mod.label("after");
    mod.call("leaf");                   // direct call + return
    mod.movImmFunc(2, "leaf");
    mod.callInd(2);                     // indirect call + return
    mod.halt();
    mod.function("leaf");
    mod.ret();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    using cpu::BranchKind;
    const auto &stats = cpu.branchStats();
    EXPECT_EQ(stats[BranchKind::CondTaken], 1u);
    EXPECT_EQ(stats[BranchKind::DirectJump], 1u);
    EXPECT_EQ(stats[BranchKind::DirectCall], 1u);
    EXPECT_EQ(stats[BranchKind::IndirectCall], 1u);
    EXPECT_EQ(stats[BranchKind::Return], 2u);
    EXPECT_EQ(stats.total(), 6u);
}

TEST(Cpu, ResetRestoresPristineState)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImm(5, 55);
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(5), 55u);
    cpu.reset();
    EXPECT_EQ(cpu.reg(5), 0u);
    EXPECT_EQ(cpu.pc(), prog.entry());
    EXPECT_EQ(cpu.instCount(), 0u);
    EXPECT_EQ(cpu.state(), cpu::Cpu::Stop::Running);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(5), 55u);
}

} // namespace

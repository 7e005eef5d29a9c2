/**
 * @file
 * Unit tests for BasicKernel: I/O, allocator, signals, sigreturn
 * frame semantics (the SROP surface), counters.
 */

#include <gtest/gtest.h>

#include "cpu/basic_kernel.hh"
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

TEST(BasicKernel, ReadDeliversInputAndEof)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.dataBss("buf", 64);
    mod.function("main");
    mod.movImm(0, 0);
    mod.movImmData(1, "buf");
    mod.movImm(2, 4);
    mod.syscall(static_cast<int64_t>(Syscall::Read));
    mod.movReg(5, 0);                   // first read count
    mod.movImm(0, 0);
    mod.movImmData(1, "buf");
    mod.movImm(2, 64);
    mod.syscall(static_cast<int64_t>(Syscall::Read));
    mod.movReg(6, 0);                   // second read count
    mod.halt();
    Program prog = link(std::move(mod));

    cpu::Cpu cpu(prog);
    cpu::BasicKernel kernel;
    kernel.setInput({'a', 'b', 'c', 'd', 'e', 'f'});
    cpu.setSyscallHandler(&kernel);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(5), 4u);
    EXPECT_EQ(cpu.reg(6), 2u);          // remainder then drained
    const uint64_t buf = prog.dataAddr("m", "buf");
    EXPECT_EQ(cpu.memory().read8(buf), 'e');
    EXPECT_EQ(cpu.memory().read8(buf + 1), 'f');
}

TEST(BasicKernel, WriteCapturesOutput)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.dataObject("msg", {'h', 'i', '!'});
    mod.function("main");
    mod.movImm(0, 1);
    mod.movImmData(1, "msg");
    mod.movImm(2, 3);
    mod.syscall(static_cast<int64_t>(Syscall::Write));
    mod.halt();
    Program prog = link(std::move(mod));

    cpu::Cpu cpu(prog);
    cpu::BasicKernel kernel;
    cpu.setSyscallHandler(&kernel);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(kernel.output(),
              (std::vector<uint8_t>{'h', 'i', '!'}));
}

TEST(BasicKernel, ReadAndWriteStraddleAPageBoundary)
{
    // Read 300 input bytes into a buffer that starts 10 bytes before a
    // page boundary, then write them back out: the bulk copies split
    // at the boundary and must move every byte once, in order.
    constexpr int64_t start = 4096 - 10;
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.dataBss("buf", 2 * 4096);
    mod.function("main");
    mod.movImm(0, 0);
    mod.movImmData(1, "buf");
    mod.aluImm(AluOp::Add, 1, start);
    mod.movImm(2, 300);
    mod.syscall(static_cast<int64_t>(Syscall::Read));
    mod.movReg(5, 0);                   // bytes read
    mod.movImm(0, 1);
    mod.movImmData(1, "buf");
    mod.aluImm(AluOp::Add, 1, start);
    mod.movImm(2, 300);
    mod.syscall(static_cast<int64_t>(Syscall::Write));
    mod.halt();
    Program prog = link(std::move(mod));

    std::vector<uint8_t> input(300);
    for (size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<uint8_t>(i * 7 + 3);
    cpu::Cpu cpu(prog);
    cpu::BasicKernel kernel;
    kernel.setInput(input);
    cpu.setSyscallHandler(&kernel);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(5), 300u);
    EXPECT_EQ(kernel.output(), input);
    const uint64_t buf = prog.dataAddr("m", "buf");
    ASSERT_EQ(buf % 4096, 0u);
    EXPECT_EQ(cpu.memory().read8(buf + start - 1), 0u);
    EXPECT_EQ(cpu.memory().read8(buf + 4095), input[9]);
    EXPECT_EQ(cpu.memory().read8(buf + 4096), input[10]);
    EXPECT_EQ(cpu.memory().read8(buf + start + 300), 0u);
}

TEST(BasicKernel, MmapBumpAllocatorPageAligned)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImm(0, 100);
    mod.syscall(static_cast<int64_t>(Syscall::Mmap));
    mod.movReg(5, 0);
    mod.movImm(0, 5000);
    mod.syscall(static_cast<int64_t>(Syscall::Mmap));
    mod.movReg(6, 0);
    mod.halt();
    Program prog = link(std::move(mod));

    cpu::Cpu cpu(prog);
    cpu::BasicKernel kernel;
    cpu.setSyscallHandler(&kernel);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(5), layout::mmap_base);
    EXPECT_EQ(cpu.reg(6), layout::mmap_base + layout::page);
    EXPECT_EQ(cpu.reg(5) % layout::page, 0u);
}

TEST(BasicKernel, ExitCarriesCode)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImm(0, 7);
    mod.syscall(static_cast<int64_t>(Syscall::Exit));
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    cpu::BasicKernel kernel;
    cpu.setSyscallHandler(&kernel);
    EXPECT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.exitCode(), 7);
}

TEST(BasicKernel, SigreturnRestoresForgedContext)
{
    // Build a fake sigframe on the stack and invoke sigreturn — the
    // SROP primitive. pc must move to `target`, registers restored.
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    // sp -= frame; fill [magic, r0..r15, pc]
    mod.aluImm(AluOp::Sub, sp_reg,
               8 * static_cast<int64_t>(
                   cpu::BasicKernel::sigframe_words));
    mod.movImm(1, static_cast<int64_t>(
        cpu::BasicKernel::sigframe_magic));
    mod.store(sp_reg, 0, 1);
    mod.movImm(1, 111);                 // r0 slot
    mod.store(sp_reg, 8, 1);
    // The frame's own sp slot (r14, index 14 -> offset 8*(1+14)).
    mod.movReg(2, sp_reg);
    mod.store(sp_reg, 8 * 15, 2);
    mod.movImmFunc(3, "landing");
    mod.store(sp_reg, 8 * 17, 3);       // pc slot
    mod.syscall(static_cast<int64_t>(Syscall::Sigreturn));
    mod.halt();                         // unreachable
    mod.function("landing");
    mod.movImm(5, 0xAA);
    mod.halt();
    Program prog = link(std::move(mod));

    cpu::Cpu cpu(prog);
    cpu::BasicKernel kernel;
    cpu.setSyscallHandler(&kernel);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(cpu.reg(5), 0xAAu);       // landed in `landing`
    EXPECT_EQ(cpu.reg(0), 111u);        // r0 restored from the frame
}

TEST(BasicKernel, SigreturnWithoutMagicKills)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.syscall(static_cast<int64_t>(Syscall::Sigreturn));
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    cpu::BasicKernel kernel;
    cpu.setSyscallHandler(&kernel);
    EXPECT_EQ(cpu.run(100), cpu::Cpu::Stop::Killed);
}

TEST(BasicKernel, GettimeofdayIsMonotonic)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.syscall(static_cast<int64_t>(Syscall::Gettimeofday));
    mod.movReg(5, 0);
    mod.syscall(static_cast<int64_t>(Syscall::Gettimeofday));
    mod.movReg(6, 0);
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    cpu::BasicKernel kernel;
    cpu.setSyscallHandler(&kernel);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_GT(cpu.reg(6), cpu.reg(5));
}

TEST(BasicKernel, CountsSyscalls)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.syscall(static_cast<int64_t>(Syscall::Open));
    mod.syscall(static_cast<int64_t>(Syscall::Open));
    mod.syscall(static_cast<int64_t>(Syscall::Close));
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    cpu::BasicKernel kernel;
    cpu.setSyscallHandler(&kernel);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(kernel.syscallCount(Syscall::Open), 2u);
    EXPECT_EQ(kernel.syscallCount(Syscall::Close), 1u);
    EXPECT_EQ(kernel.totalSyscalls(), 3u);
}

TEST(BasicKernel, UnknownSyscallReturnsEnosys)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.syscall(9999);
    mod.halt();
    Program prog = link(std::move(mod));
    cpu::Cpu cpu(prog);
    cpu::BasicKernel kernel;
    cpu.setSyscallHandler(&kernel);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    EXPECT_EQ(static_cast<int64_t>(cpu.reg(0)), -38);
}

TEST(BasicKernel, ResetClearsState)
{
    cpu::BasicKernel kernel;
    kernel.setInput({1, 2, 3});
    kernel.reset();
    EXPECT_EQ(kernel.totalSyscalls(), 0u);
    EXPECT_TRUE(kernel.output().empty());
}

} // namespace

/**
 * @file
 * Tests for the kBouncer-style LBR heuristic.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "isa/loader.hh"
#include "runtime/baselines.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;
using namespace flowguard::runtime;

Program
fixture()
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.call("leaf");           // creates a call-preceded site
    mod.nop();
    mod.callInd(1);             // another call-preceded site
    mod.halt();
    mod.function("leaf");
    mod.nop();
    mod.ret();
    mod.function("gadget", /*exported=*/false);
    mod.ret();                  // a ret-only gadget (CoFI immediately)
    return Loader().addExecutable(mod.build()).link();
}

TEST(Baselines, CallPrecededDetection)
{
    Program prog = fixture();
    const uint64_t main_addr = prog.funcAddr("m", "main");
    EXPECT_TRUE(isCallPreceded(prog, main_addr + 5));       // after call
    EXPECT_TRUE(isCallPreceded(prog, main_addr + 5 + 1 + 3)); // call*
    EXPECT_FALSE(isCallPreceded(prog, main_addr));
    EXPECT_FALSE(isCallPreceded(prog, prog.funcAddr("m", "gadget")));
}

TEST(Baselines, KbouncerFlagsRetToNonCallPreceded)
{
    Program prog = fixture();
    std::vector<trace::LbrEntry> snapshot{
        {prog.funcAddr("m", "leaf") + 1,
         prog.funcAddr("m", "gadget"), cpu::BranchKind::Return}};
    EXPECT_FALSE(kbouncerCheck(prog, snapshot));
}

TEST(Baselines, KbouncerPassesCallPrecededReturns)
{
    Program prog = fixture();
    std::vector<trace::LbrEntry> snapshot{
        {prog.funcAddr("m", "leaf") + 1,
         prog.funcAddr("m", "main") + 5, cpu::BranchKind::Return}};
    EXPECT_TRUE(kbouncerCheck(prog, snapshot));
}

TEST(Baselines, KbouncerIgnoresNonReturns)
{
    Program prog = fixture();
    std::vector<trace::LbrEntry> snapshot{
        {0x1, prog.funcAddr("m", "gadget"),
         cpu::BranchKind::IndirectJump}};
    EXPECT_TRUE(kbouncerCheck(prog, snapshot));
}

} // namespace

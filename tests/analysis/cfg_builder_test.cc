/**
 * @file
 * Unit tests for O-CFG construction: block splitting, edge kinds per
 * terminator, call/return matching, tail-call closure, PLT/GOT
 * resolution, jump tables, conservative fallbacks.
 */

#include <gtest/gtest.h>

#include "analysis/cfg_builder.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;
using namespace flowguard::analysis;

bool
hasEdge(const Cfg &cfg, uint64_t from_start, uint64_t to_start,
        EdgeKind kind)
{
    auto from = cfg.blockAt(from_start);
    auto to = cfg.blockAt(to_start);
    if (!from || !to)
        return false;
    for (uint32_t e : cfg.outEdges(*from)) {
        const Edge &edge = cfg.edges()[e];
        if (edge.to == *to && edge.kind == kind)
            return true;
    }
    return false;
}

TEST(CfgBuilder, SplitsBlocksAtLeaders)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.nop();                       // block 1 (entry)
    mod.cmpImm(1, 0);
    mod.jcc(Cond::Eq, "target");     // ends block 1
    mod.nop();                       // block 2 (fallthrough)
    mod.label("target");
    mod.halt();                      // block 3 (branch target)
    Program prog = Loader().addExecutable(mod.build()).link();
    Cfg cfg = buildCfg(prog);
    EXPECT_EQ(cfg.blocks().size(), 3u);
}

TEST(CfgBuilder, ConditionalProducesBothEdges)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.cmpImm(1, 0);
    mod.jcc(Cond::Eq, "yes");
    mod.label("fall");
    mod.nop();
    mod.label("yes");
    mod.halt();
    Program prog = Loader().addExecutable(mod.build()).link();
    Cfg cfg = buildCfg(prog);
    const uint64_t entry = prog.funcAddr("m", "main");
    const uint64_t fall = entry + 4 + 2;        // cmpImm + jcc
    const uint64_t yes = fall + 1;              // after the nop
    EXPECT_TRUE(hasEdge(cfg, entry, yes, EdgeKind::CondTaken));
    EXPECT_TRUE(hasEdge(cfg, entry, fall, EdgeKind::CondFall));
}

TEST(CfgBuilder, CallAndReturnMatched)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.call("leaf");
    mod.halt();                      // return site block
    mod.function("leaf");
    mod.ret();
    Program prog = Loader().addExecutable(mod.build()).link();
    Cfg cfg = buildCfg(prog);
    const uint64_t main_addr = prog.funcAddr("m", "main");
    const uint64_t leaf = prog.funcAddr("m", "leaf");
    const uint64_t ret_site = main_addr + 5;
    EXPECT_TRUE(hasEdge(cfg, main_addr, leaf, EdgeKind::DirectCall));
    EXPECT_TRUE(hasEdge(cfg, leaf, ret_site, EdgeKind::Return));
}

TEST(CfgBuilder, TailCallReturnsToOriginalCaller)
{
    // a calls b; b tail-jumps to c; c's ret must flow to a's return
    // site (the §4.1 tail-call handling).
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.call("b");
    mod.halt();
    mod.function("b");
    mod.aluImm(AluOp::Add, 1, 1);
    mod.jmp("c");                    // tail call
    mod.function("c");
    mod.ret();
    Program prog = Loader().addExecutable(mod.build()).link();
    Cfg cfg = buildCfg(prog);
    const uint64_t ret_site = prog.funcAddr("m", "main") + 5;
    EXPECT_TRUE(hasEdge(cfg, prog.funcAddr("m", "c"), ret_site,
                        EdgeKind::Return));
}

TEST(CfgBuilder, TailCallClosureIsTransitive)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.call("b");
    mod.halt();
    mod.function("b");
    mod.jmp("c");
    mod.function("c");
    mod.jmp("d");
    mod.function("d");
    mod.ret();
    Program prog = Loader().addExecutable(mod.build()).link();
    Cfg cfg = buildCfg(prog);
    const uint64_t ret_site = prog.funcAddr("m", "main") + 5;
    EXPECT_TRUE(hasEdge(cfg, prog.funcAddr("m", "d"), ret_site,
                        EdgeKind::Return));
}

TEST(CfgBuilder, PltJumpResolvesExactly)
{
    ModuleBuilder exe("exe", ModuleKind::Executable);
    exe.function("main");
    exe.callExt("ext");
    exe.halt();
    ModuleBuilder lib("lib", ModuleKind::SharedLib);
    lib.function("ext");
    lib.ret();
    Program prog = Loader()
        .addExecutable(exe.build())
        .addLibrary(lib.build())
        .link();
    Cfg cfg = buildCfg(prog);
    const uint64_t stub = prog.funcAddr("exe", "ext@plt");
    const uint64_t ext = prog.funcAddr("lib", "ext");
    EXPECT_TRUE(hasEdge(cfg, stub, ext, EdgeKind::IndirectJump));
    // Exactly one indirect target for the stub's jump.
    auto block = cfg.blockAt(stub);
    ASSERT_TRUE(block.has_value());
    size_t indirect = 0;
    for (uint32_t e : cfg.outEdges(*block))
        indirect += edgeIsIndirect(cfg.edges()[e].kind);
    EXPECT_EQ(indirect, 1u);
    // And the callee's return reaches the original call site — the
    // PLT stub is a resolved indirect tail call.
    const uint64_t ret_site = prog.funcAddr("exe", "main") + 5;
    EXPECT_TRUE(hasEdge(cfg, ext, ret_site, EdgeKind::Return));
}

TEST(CfgBuilder, JumpTableHintNarrowsIndirectJump)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.funcPtrTable("tbl", {"s0", "s1"});
    mod.function("s0", /*exported=*/false);
    mod.halt();
    mod.function("s1", /*exported=*/false);
    mod.halt();
    mod.function("decoy", /*exported=*/false);
    mod.halt();
    mod.function("aux");
    // decoy is address-taken, to prove the hint narrows past it.
    mod.movImmFunc(1, "decoy");
    mod.halt();
    mod.function("main");
    mod.movImmData(2, "tbl");
    mod.load(3, 2, 0);
    mod.jmpInd(3);
    mod.jumpTableHint("tbl", 2);
    Program prog = Loader().addExecutable(mod.build()).link();
    Cfg cfg = buildCfg(prog);
    auto block = cfg.blockContaining(prog.funcAddr("m", "main"));
    ASSERT_TRUE(block.has_value());
    // Find the jmpInd block (main's last block).
    uint64_t s0 = prog.funcAddr("m", "s0");
    uint64_t s1 = prog.funcAddr("m", "s1");
    uint64_t decoy = prog.funcAddr("m", "decoy");
    bool to_s0 = false, to_s1 = false, to_decoy = false;
    for (const Edge &edge : cfg.edges()) {
        if (edge.kind != EdgeKind::IndirectJump)
            continue;
        to_s0 |= cfg.blocks()[edge.to].start == s0;
        to_s1 |= cfg.blocks()[edge.to].start == s1;
        to_decoy |= cfg.blocks()[edge.to].start == decoy;
    }
    EXPECT_TRUE(to_s0);
    EXPECT_TRUE(to_s1);
    EXPECT_FALSE(to_decoy);
}

TEST(CfgBuilder, UnhintedIndirectJumpFallsBackToAddressTaken)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("t0", /*exported=*/false);
    mod.halt();
    mod.function("t1", /*exported=*/false);
    mod.halt();
    mod.function("main");
    mod.movImmFunc(1, "t0");
    mod.movImmFunc(2, "t1");
    mod.jmpInd(1);
    Program prog = Loader().addExecutable(mod.build()).link();
    Cfg cfg = buildCfg(prog);
    uint64_t t0 = prog.funcAddr("m", "t0");
    uint64_t t1 = prog.funcAddr("m", "t1");
    bool to_t0 = false, to_t1 = false;
    for (const Edge &edge : cfg.edges()) {
        if (edge.kind != EdgeKind::IndirectJump)
            continue;
        to_t0 |= cfg.blocks()[edge.to].start == t0;
        to_t1 |= cfg.blocks()[edge.to].start == t1;
    }
    // Conservative: both address-taken functions allowed.
    EXPECT_TRUE(to_t0);
    EXPECT_TRUE(to_t1);
}

TEST(CfgBuilder, SyscallFallsThrough)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.syscall(1);
    mod.halt();
    Program prog = Loader().addExecutable(mod.build()).link();
    Cfg cfg = buildCfg(prog);
    const uint64_t entry = prog.funcAddr("m", "main");
    EXPECT_TRUE(hasEdge(cfg, entry, entry + 2, EdgeKind::Fallthrough));
}

TEST(CfgBuilder, IndirectCallReturnsMatchedToo)
{
    // Returns of indirectly-called functions flow back to the
    // indirect call site's return address.
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("cb", /*exported=*/false);
    mod.ret();
    mod.function("main");
    mod.movImmFunc(1, "cb");
    mod.callInd(1);
    mod.halt();
    Program prog = Loader().addExecutable(mod.build()).link();
    Cfg cfg = buildCfg(prog);
    const uint64_t cb = prog.funcAddr("m", "cb");
    const uint64_t main_addr = prog.funcAddr("m", "main");
    const uint64_t ret_site = main_addr + 6 + 3;
    EXPECT_TRUE(hasEdge(cfg, cb, ret_site, EdgeKind::Return));
}

} // namespace

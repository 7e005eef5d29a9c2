/**
 * @file
 * ModuleMap unit tests: TIP classification across live/stale module
 * ranges, JIT region registration, and rebasing.
 */

#include <gtest/gtest.h>

#include "dynamic/module_map.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;
using namespace flowguard::dynamic;

Program
twoModuleProgram()
{
    ModuleBuilder lib("plug", ModuleKind::SharedLib);
    lib.function("plug_f");
    lib.aluImm(AluOp::Add, 6, 1);
    lib.ret();

    ModuleBuilder exe("exe", ModuleKind::Executable);
    exe.needs("plug");
    exe.function("main");
    exe.callExt("plug_f");
    exe.halt();

    return Loader()
        .addExecutable(exe.build())
        .addLibrary(lib.build())
        .link();
}

TEST(ModuleMap, ClassifiesLiveModulesWithOffsets)
{
    Program prog = twoModuleProgram();
    ModuleMap map(prog);

    const auto &exe = prog.modules()[0];
    const auto &plug = prog.modules()[1];

    auto hit = map.classify(exe.codeBase + 2);
    EXPECT_EQ(hit.cls, AddrClass::LiveModule);
    EXPECT_EQ(hit.moduleIndex, 0);
    EXPECT_EQ(hit.offset, 2u);

    hit = map.classify(plug.codeBase);
    EXPECT_EQ(hit.cls, AddrClass::LiveModule);
    EXPECT_EQ(hit.moduleIndex, 1);
    EXPECT_EQ(hit.offset, 0u);

    // Past the end of everything: unknown.
    EXPECT_EQ(map.classify(0xdead0000dead0000ULL).cls,
              AddrClass::Unknown);
}

TEST(ModuleMap, UnloadedModuleRangeGoesStale)
{
    Program prog = twoModuleProgram();
    ModuleMap map(prog);
    const auto &plug = prog.modules()[1];

    map.setModuleLive(1, false);
    EXPECT_FALSE(map.moduleLive(1));
    auto hit = map.classify(plug.codeBase + 1);
    EXPECT_EQ(hit.cls, AddrClass::StaleModule);
    EXPECT_EQ(hit.moduleIndex, 1);

    map.setModuleLive(1, true);
    EXPECT_EQ(map.classify(plug.codeBase + 1).cls,
              AddrClass::LiveModule);
}

TEST(ModuleMap, JitRegionsMapAndUnmap)
{
    Program prog = twoModuleProgram();
    ModuleMap map(prog);

    const uint64_t base = layout::jit_base;
    map.mapJit(base, base + layout::page);
    EXPECT_EQ(map.numJitRegions(), 1u);
    EXPECT_EQ(map.classify(base + 0x10).cls, AddrClass::JitRegion);

    EXPECT_FALSE(map.unmapJit(base + 8));   // not a region start
    EXPECT_TRUE(map.unmapJit(base));
    EXPECT_EQ(map.numJitRegions(), 0u);
    EXPECT_EQ(map.classify(base + 0x10).cls, AddrClass::Unknown);
}

TEST(ModuleMap, RebaseMovesRangePreservingOffsets)
{
    Program prog = twoModuleProgram();
    ModuleMap map(prog);
    const auto &plug = prog.modules()[1];
    const uint64_t old_base = plug.codeBase;
    const uint64_t new_base = old_base + 0x4000;

    map.rebaseModule(1, new_base);
    EXPECT_EQ(map.region(1).base, new_base);
    // The module-local offset is the relocation-invariant key.
    auto hit = map.classify(new_base + 1);
    EXPECT_EQ(hit.cls, AddrClass::LiveModule);
    EXPECT_EQ(hit.moduleIndex, 1);
    EXPECT_EQ(hit.offset, 1u);
    EXPECT_EQ(map.classify(old_base + 1).cls, AddrClass::Unknown);
}

} // namespace

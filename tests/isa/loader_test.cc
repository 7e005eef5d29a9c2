/**
 * @file
 * Unit tests for the Loader: layout, PLT/GOT synthesis, symbol
 * interposition, VDSO precedence, relocations, Program queries.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "isa/loader.hh"
#include "support/logging.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;

Module
tinyExe(const std::string &callee = "")
{
    ModuleBuilder mod("exe", ModuleKind::Executable);
    mod.function("main");
    if (!callee.empty())
        mod.callExt(callee);
    mod.halt();
    return mod.build();
}

Module
tinyLib(const std::string &name, const std::string &fn,
        int64_t distinguisher)
{
    ModuleBuilder mod(name, ModuleKind::SharedLib);
    mod.function(fn);
    mod.movImm(0, distinguisher);
    mod.ret();
    return mod.build();
}

TEST(Loader, LayoutSeparatesModules)
{
    Program prog = Loader()
        .addExecutable(tinyExe("helper"))
        .addLibrary(tinyLib("lib1", "helper", 1))
        .addLibrary(tinyLib("lib2", "other", 2))
        .link();
    ASSERT_EQ(prog.modules().size(), 3u);
    const auto &exe = prog.modules()[0];
    const auto &lib1 = prog.modules()[1];
    const auto &lib2 = prog.modules()[2];
    EXPECT_EQ(exe.codeBase, layout::exec_base);
    EXPECT_EQ(lib1.codeBase, layout::lib_base);
    EXPECT_EQ(lib2.codeBase, layout::lib_base + layout::lib_stride);
    // Data sits above code within each module, no overlaps.
    EXPECT_GE(exe.dataBase, exe.codeEnd);
    EXPECT_GE(lib1.dataBase, lib1.codeEnd);
}

TEST(Loader, PltStubSynthesized)
{
    Program prog = Loader()
        .addExecutable(tinyExe("helper"))
        .addLibrary(tinyLib("libx", "helper", 7))
        .link();
    const uint64_t stub = prog.funcAddr("exe", "helper@plt");
    // Stub = movi r15, &got; load r15,[r15]; jmp *r15
    const Instruction *movi = prog.fetch(stub);
    ASSERT_NE(movi, nullptr);
    EXPECT_EQ(movi->op, Opcode::MovImm);
    EXPECT_EQ(movi->rd, plt_scratch_reg);
    const Instruction *load = prog.fetch(prog.nextAddr(stub));
    ASSERT_NE(load, nullptr);
    EXPECT_EQ(load->op, Opcode::Load);
    const Instruction *jmp =
        prog.fetch(prog.nextAddr(prog.nextAddr(stub)));
    ASSERT_NE(jmp, nullptr);
    EXPECT_EQ(jmp->op, Opcode::JmpInd);
    EXPECT_EQ(jmp->rs, plt_scratch_reg);

    // The GOT slot holds the resolved callee address.
    const uint64_t got = prog.dataAddr("exe", "got.helper");
    uint64_t slot_value = 0;
    for (const auto &image : prog.initialData()) {
        if (got >= image.addr &&
            got + 8 <= image.addr + image.bytes.size()) {
            for (int b = 7; b >= 0; --b)
                slot_value = (slot_value << 8) |
                    image.bytes[got - image.addr +
                                static_cast<uint64_t>(b)];
        }
    }
    EXPECT_EQ(slot_value, prog.funcAddr("libx", "helper"));
}

TEST(Loader, InterpositionFirstExporterWins)
{
    // Both libraries export `dup`; load order decides.
    Program prog = Loader()
        .addExecutable(tinyExe("dup"))
        .addLibrary(tinyLib("first", "dup", 1))
        .addLibrary(tinyLib("second", "dup", 2))
        .link();
    uint64_t got = prog.dataAddr("exe", "got.dup");
    uint64_t resolved = 0;
    for (const auto &image : prog.initialData()) {
        if (got >= image.addr &&
            got + 8 <= image.addr + image.bytes.size()) {
            for (int b = 7; b >= 0; --b)
                resolved = (resolved << 8) |
                    image.bytes[got - image.addr +
                                static_cast<uint64_t>(b)];
        }
    }
    EXPECT_EQ(resolved, prog.funcAddr("first", "dup"));
}

TEST(Loader, ExecutableInterposesLibraries)
{
    // The executable itself exports the symbol: it wins over libs.
    ModuleBuilder exe("exe", ModuleKind::Executable);
    exe.function("main");
    exe.callExt("shared");
    exe.halt();
    exe.function("shared", /*exported=*/true);
    exe.ret();
    Program prog = Loader()
        .addExecutable(exe.build())
        .addLibrary(tinyLib("lib", "shared", 9))
        .link();
    uint64_t got = prog.dataAddr("exe", "got.shared");
    uint64_t resolved = 0;
    for (const auto &image : prog.initialData()) {
        if (got >= image.addr &&
            got + 8 <= image.addr + image.bytes.size()) {
            for (int b = 7; b >= 0; --b)
                resolved = (resolved << 8) |
                    image.bytes[got - image.addr +
                                static_cast<uint64_t>(b)];
        }
    }
    EXPECT_EQ(resolved, prog.funcAddr("exe", "shared"));
}

TEST(Loader, VdsoTakesPrecedenceForItsFunctions)
{
    ModuleBuilder vdso("vdso", ModuleKind::Vdso);
    vdso.function("gettimeofday");
    vdso.ret();
    Program prog = Loader()
        .addExecutable(tinyExe("gettimeofday"))
        .addLibrary(tinyLib("libc", "gettimeofday", 3))
        .addVdso(vdso.build())
        .link();
    uint64_t got = prog.dataAddr("exe", "got.gettimeofday");
    uint64_t resolved = 0;
    for (const auto &image : prog.initialData()) {
        if (got >= image.addr &&
            got + 8 <= image.addr + image.bytes.size()) {
            for (int b = 7; b >= 0; --b)
                resolved = (resolved << 8) |
                    image.bytes[got - image.addr +
                                static_cast<uint64_t>(b)];
        }
    }
    EXPECT_EQ(resolved, prog.funcAddr("vdso", "gettimeofday"));
}

TEST(Loader, UnresolvedSymbolIsFatal)
{
    Loader loader;
    loader.addExecutable(tinyExe("missing_everywhere"));
    EXPECT_THROW(loader.link(), SimError);
}

TEST(Loader, MissingEntryIsFatal)
{
    ModuleBuilder exe("exe", ModuleKind::Executable);
    exe.function("not_main");
    exe.halt();
    Loader loader;
    loader.addExecutable(exe.build());
    EXPECT_THROW(loader.link(), SimError);
}

TEST(Loader, CustomEntryFunction)
{
    ModuleBuilder exe("exe", ModuleKind::Executable);
    exe.function("boot");
    exe.halt();
    Program prog = Loader()
        .addExecutable(exe.build())
        .entryFunction("boot")
        .link();
    EXPECT_EQ(prog.entry(), prog.funcAddr("exe", "boot"));
}

TEST(Loader, ProgramQueries)
{
    Program prog = Loader()
        .addExecutable(tinyExe("helper"))
        .addLibrary(tinyLib("lib", "helper", 5))
        .cr3(0x77)
        .link();
    EXPECT_EQ(prog.cr3(), 0x77u);
    EXPECT_EQ(prog.stackTop(), layout::stack_top);

    const uint64_t main_addr = prog.funcAddr("exe", "main");
    EXPECT_TRUE(prog.isCode(main_addr));
    EXPECT_FALSE(prog.isCode(0x1234));
    EXPECT_EQ(prog.moduleIndexAt(main_addr), 0);
    EXPECT_EQ(prog.moduleIndexAt(prog.funcAddr("lib", "helper")), 1);
    EXPECT_EQ(prog.moduleIndexAt(0xdead), -1);

    const LoadedFunction *fn = prog.functionAt(main_addr);
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->name, "main");
    // Mid-function lookup also lands in main.
    EXPECT_EQ(prog.functionAt(prog.nextAddr(main_addr)), fn);
    EXPECT_EQ(prog.functionAt(0x10), nullptr);

    const uint32_t index = prog.instIndexAt(main_addr);
    ASSERT_NE(index, no_inst);
    EXPECT_EQ(prog.instAddr(index), main_addr);
    EXPECT_EQ(prog.instIndexAt(main_addr + 1), no_inst);
}

TEST(Loader, RandomizedLayoutSlidesModulesDeterministically)
{
    auto build = [](LayoutPolicy policy) {
        return Loader()
            .addExecutable(tinyExe("helper"))
            .addLibrary(tinyLib("lib1", "helper", 1))
            .addLibrary(tinyLib("lib2", "other", 2))
            .layout(policy)
            .link();
    };
    Program fixed = build(LayoutPolicy::fixed());
    Program slid = build(LayoutPolicy::randomized(7));
    Program slid_again = build(LayoutPolicy::randomized(7));
    Program other_seed = build(LayoutPolicy::randomized(8));

    const LayoutPolicy defaults;
    bool moved = false, seed_differs = false;
    for (size_t m = 0; m < fixed.modules().size(); ++m) {
        const uint64_t base = slid.modules()[m].codeBase;
        // Same seed, same layout — byte-for-byte reproducible.
        EXPECT_EQ(base, slid_again.modules()[m].codeBase);
        // Slides are page-aligned and bounded so arenas stay disjoint.
        EXPECT_EQ(base % layout::page, 0u);
        const uint64_t ref = fixed.modules()[m].codeBase;
        const uint64_t slide = base >= ref ? base - ref : ref - base;
        EXPECT_LE(slide, defaults.maxSlidePages * layout::page);
        moved |= base != ref;
        seed_differs |= base != other_seed.modules()[m].codeBase;
    }
    EXPECT_TRUE(moved);
    EXPECT_TRUE(seed_differs);
}

TEST(Loader, FingerprintIsRelocationInvariant)
{
    auto build = [](LayoutPolicy policy, int64_t distinguisher) {
        return Loader()
            .addExecutable(tinyExe("helper"))
            .addLibrary(tinyLib("lib", "helper", distinguisher))
            .layout(policy)
            .link();
    };
    Program fixed = build(LayoutPolicy::fixed(), 1);
    Program slid = build(LayoutPolicy::randomized(3), 1);
    Program patched = build(LayoutPolicy::fixed(), 2);

    // Same code under a different base: identical fingerprints (the
    // per-module profile sections depend on this).
    for (size_t m = 0; m < fixed.modules().size(); ++m)
        EXPECT_EQ(fixed.modules()[m].fingerprint,
                  slid.modules()[m].fingerprint)
            << fixed.modules()[m].name;
    EXPECT_NE(fixed.modules()[0].fingerprint, 0u);

    // One changed instruction changes that module's fingerprint, and
    // only that module's.
    EXPECT_NE(fixed.modules()[1].fingerprint,
              patched.modules()[1].fingerprint);
    EXPECT_EQ(fixed.modules()[0].fingerprint,
              patched.modules()[0].fingerprint);
}

TEST(Loader, DoubleExecutableIsRejected)
{
    Loader loader;
    loader.addExecutable(tinyExe());
    EXPECT_THROW(loader.addExecutable(tinyExe()), SimError);
}

TEST(Loader, KindMismatchIsRejected)
{
    Loader loader;
    EXPECT_THROW(loader.addLibrary(tinyExe()), SimError);
}

} // namespace

/**
 * @file
 * Profile v3 (per-module sections) and recoverable-loading tests:
 *
 *  - v3 round-trips training state and stays valid under any ASLR
 *    layout (module-relative edges, relocation-invariant keys);
 *  - one changed library skips only its own section, the rest of the
 *    profile still applies;
 *  - a changed executable is refused (ModuleMismatch);
 *  - a retired v2 header reads as BadVersion;
 *  - every failure mode comes back as a ProfileLoadResult instead of
 *    aborting (the strict loadProfile wrapper still throws).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/flowguard.hh"
#include "core/profile_io.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"
#include "support/logging.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;

Module
makeLib(const std::string &name, bool variant)
{
    ModuleBuilder lib(name, ModuleKind::SharedLib);
    lib.function(name + "_f");
    lib.aluImm(AluOp::Add, 6, 3);
    if (variant)
        lib.aluImm(AluOp::Xor, 6, 5);
    lib.ret();
    return lib.build();
}

Module
makeExec(bool variant)
{
    ModuleBuilder exe("exe", ModuleKind::Executable);
    exe.needs("libx");
    exe.needs("liby");
    exe.function("main");
    // Call libx twice, then liby. The first indirect call is subsumed
    // by the TIP.PGE that opens the trace and the first return is the
    // window head, so the earliest *creditable* edges start at the
    // second call — the repeat guarantees libx-only edges get trained
    // alongside the liby ones.
    for (int idx : {0, 0, 1}) {
        exe.movImm(6, 8 * idx);
        exe.movImmData(7, "tbl");
        exe.alu(AluOp::Add, 7, 6);
        exe.load(7, 7, 0);
        exe.callInd(7);
    }
    if (variant)
        exe.aluImm(AluOp::Add, 10, 1);
    exe.halt();
    exe.funcPtrTable("tbl", {"libx_f", "liby_f"},
                     /*exported=*/false);
    return exe.build();
}

/** exec + libx + liby; `liby_variant`/`exec_variant` change one
 *  module's code, `layout` places everything. */
Program
makeProgram(bool liby_variant = false, bool exec_variant = false,
            LayoutPolicy layout = LayoutPolicy::fixed())
{
    return Loader()
        .addExecutable(makeExec(exec_variant))
        .addLibrary(makeLib("libx", false))
        .addLibrary(makeLib("liby", liby_variant))
        .layout(layout)
        .link();
}

FlowGuard
trainedGuard(const Program &program)
{
    FlowGuard guard(program);
    guard.analyze();
    guard.trainWithCorpus({{0}});
    return guard;
}

TEST(ProfileV3, RoundTripsOnSameProgram)
{
    Program prog = makeProgram();
    FlowGuard trained = trainedGuard(prog);
    ASSERT_GT(trained.itc().highCreditCount(), 0u);

    std::stringstream buffer;
    saveProfile(trained, buffer);

    FlowGuard fresh(prog);
    auto result = tryLoadProfile(fresh, buffer);
    EXPECT_TRUE(result.ok()) << result.message;
    EXPECT_EQ(result.version, 3u);
    EXPECT_GT(result.modulesLoaded, 0u);
    EXPECT_EQ(result.modulesSkipped, 0u);
    EXPECT_GT(result.edgesApplied, 0u);
    EXPECT_EQ(fresh.itc().highCreditCount(),
              trained.itc().highCreditCount());
    for (size_t e = 0; e < trained.itc().numEdges(); ++e)
        ASSERT_EQ(fresh.itc().highCredit(static_cast<int64_t>(e)),
                  trained.itc().highCredit(static_cast<int64_t>(e)));
}

TEST(ProfileV3, ValidUnderAnyAslrLayout)
{
    Program fixed = makeProgram();
    FlowGuard trained = trainedGuard(fixed);
    std::stringstream buffer;
    saveProfile(trained, buffer);

    // Same modules, completely different bases: module-relative
    // records + relocation-invariant fingerprints must still apply.
    Program slid = makeProgram(false, false,
                               LayoutPolicy::randomized(7));
    ASSERT_NE(slid.modules()[1].codeBase,
              fixed.modules()[1].codeBase);

    FlowGuard fresh(slid);
    auto result = tryLoadProfile(fresh, buffer);
    EXPECT_TRUE(result.ok()) << result.message;
    EXPECT_EQ(result.modulesSkipped, 0u);
    EXPECT_GT(result.edgesApplied, 0u);
    EXPECT_EQ(fresh.itc().highCreditCount(),
              trained.itc().highCreditCount());
}

TEST(ProfileV3, ChangedLibrarySkipsOnlyItsSection)
{
    Program prog = makeProgram();
    FlowGuard trained = trainedGuard(prog);
    std::stringstream buffer;
    saveProfile(trained, buffer);

    Program patched = makeProgram(/*liby_variant=*/true);
    FlowGuard fresh(patched);
    auto result = tryLoadProfile(fresh, buffer);
    // The profile still loads: only liby's section (and the edges
    // touching it) are refused.
    EXPECT_TRUE(result.ok()) << result.message;
    EXPECT_GE(result.modulesSkipped, 1u);
    EXPECT_GE(result.modulesLoaded, 1u);
    EXPECT_GT(result.edgesApplied, 0u);
    EXPECT_GT(fresh.itc().highCreditCount(), 0u);
}

TEST(ProfileV3, ChangedExecutableIsModuleMismatch)
{
    Program prog = makeProgram();
    FlowGuard trained = trainedGuard(prog);
    std::stringstream buffer;
    saveProfile(trained, buffer);

    Program patched = makeProgram(false, /*exec_variant=*/true);
    FlowGuard fresh(patched);
    auto result = tryLoadProfile(fresh, buffer);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status,
              ProfileLoadResult::Status::ModuleMismatch);

    // The strict wrapper keeps the historical fatal behavior.
    std::stringstream again;
    saveProfile(trained, again);
    FlowGuard victim(patched);
    EXPECT_THROW(loadProfile(victim, again), SimError);
}

TEST(ProfileV3, V2HeaderReadsAsBadVersion)
{
    // Magic + version 2, little-endian u64s: the retired whole-program
    // format.
    std::string header(16, '\0');
    const uint64_t fields[] = {0x46475046, 2};
    for (size_t i = 0; i < 16; ++i)
        header[i] = static_cast<char>(fields[i / 8] >> (8 * (i % 8)));
    std::stringstream in(header);

    Program prog = makeProgram();
    FlowGuard fresh(prog);
    auto result = tryLoadProfile(fresh, in);
    EXPECT_EQ(result.status, ProfileLoadResult::Status::BadVersion);
    EXPECT_EQ(result.version, 2u);
    EXPECT_EQ(fresh.itc().highCreditCount(), 0u);
}

TEST(ProfileV3, CorruptStreamsAreRecoverable)
{
    Program prog = makeProgram();

    {
        FlowGuard guard(prog);
        std::stringstream garbage("definitely not a profile");
        auto result = tryLoadProfile(guard, garbage);
        EXPECT_FALSE(result.ok());
        EXPECT_EQ(result.status,
                  ProfileLoadResult::Status::BadMagic);
    }
    {
        FlowGuard guard(prog);
        std::stringstream empty;
        auto result = tryLoadProfile(guard, empty);
        EXPECT_FALSE(result.ok());
    }
    {
        // A real profile cut off mid-stream.
        FlowGuard trained = trainedGuard(prog);
        std::stringstream buffer;
        saveProfile(trained, buffer);
        std::string bytes = buffer.str();
        bytes.resize(bytes.size() / 2);
        FlowGuard guard(prog);
        std::stringstream cut(bytes);
        auto result = tryLoadProfile(guard, cut);
        EXPECT_FALSE(result.ok());
    }
    {
        FlowGuard guard(prog);
        std::ifstream missing("/nonexistent/profile.bin",
                              std::ios::binary);
        auto result = tryLoadProfile(guard, missing);
        EXPECT_FALSE(result.ok());
        EXPECT_EQ(result.status, ProfileLoadResult::Status::IoError);
    }
}

TEST(ProfileV3, StatusNamesAreStable)
{
    EXPECT_STREQ(profileStatusName(ProfileLoadResult::Status::Ok),
                 "ok");
    EXPECT_STREQ(
        profileStatusName(ProfileLoadResult::Status::BadMagic),
        "bad-magic");
    EXPECT_STREQ(
        profileStatusName(ProfileLoadResult::Status::ModuleMismatch),
        "module-mismatch");
}

} // namespace

/**
 * @file
 * Unit tests for the fast-path checker: verdicts, window policy
 * (pkt_count, module stride), credit thresholding, TNT matching.
 */

#include <gtest/gtest.h>

#include "analysis/cfg_builder.hh"
#include "analysis/itc_cfg.hh"
#include "runtime/fast_path.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;
using namespace flowguard::runtime;

/** Two IT-BB chain: t0 -> t1 (via direct flow + one indirect). */
struct Fixture
{
    Fixture()
    {
        ModuleBuilder mod("m", ModuleKind::Executable);
        mod.funcPtrTable("tbl", {"t0", "t1"});
        mod.function("t0", /*exported=*/false);
        mod.movImmFunc(1, "t1");
        mod.jmpInd(1);
        mod.function("t1", /*exported=*/false);
        mod.halt();
        mod.function("main");
        mod.movImmFunc(1, "t0");
        mod.jmpInd(1);
        prog = Loader().addExecutable(mod.build()).link();
        cfg = std::make_unique<analysis::Cfg>(analysis::buildCfg(prog));
        itc = std::make_unique<analysis::ItcCfg>(
            analysis::ItcCfg::build(*cfg));
        t0 = prog.funcAddr("m", "t0");
        t1 = prog.funcAddr("m", "t1");
    }

    Program prog;
    std::unique_ptr<analysis::Cfg> cfg;
    std::unique_ptr<analysis::ItcCfg> itc;
    uint64_t t0, t1;
};

decode::TipTransition
transition(uint64_t from, uint64_t to,
           std::vector<uint8_t> tnt = {})
{
    decode::TipTransition t;
    t.from = from;
    t.to = to;
    t.tnt = std::move(tnt);
    return t;
}

TEST(FastPath, PassesOnHighCreditEdges)
{
    Fixture fx;
    const int64_t edge = fx.itc->findEdge(fx.t0, fx.t1);
    ASSERT_GE(edge, 0);
    fx.itc->setHighCredit(edge);

    FastPathConfig config;
    config.pktCount = 2;
    config.requireModuleStride = false;
    FastPathChecker checker(*fx.itc, fx.prog, config);
    auto result = checker.checkTransitions(
        {transition(0, fx.t0), transition(fx.t0, fx.t1)});
    EXPECT_EQ(result.verdict, CheckVerdict::Pass);
    EXPECT_EQ(result.edgesChecked, 1u);
    EXPECT_EQ(result.highCreditEdges, 1u);
}

TEST(FastPath, MissingEdgeIsViolation)
{
    Fixture fx;
    FastPathConfig config;
    config.requireModuleStride = false;
    FastPathChecker checker(*fx.itc, fx.prog, config);
    // t1 -> t0 does not exist (only t0 -> t1 does).
    auto result = checker.checkTransitions(
        {transition(0, fx.t1), transition(fx.t1, fx.t0)});
    EXPECT_EQ(result.verdict, CheckVerdict::Violation);
    EXPECT_EQ(result.violatingFrom, fx.t1);
    EXPECT_EQ(result.violatingTo, fx.t0);
}

TEST(FastPath, NonNodeHeadIsViolation)
{
    Fixture fx;
    FastPathConfig config;
    config.requireModuleStride = false;
    FastPathChecker checker(*fx.itc, fx.prog, config);
    auto result =
        checker.checkTransitions({transition(0, 0xdead)});
    EXPECT_EQ(result.verdict, CheckVerdict::Violation);
}

TEST(FastPath, LowCreditEdgeIsSuspicious)
{
    Fixture fx;
    FastPathConfig config;
    config.requireModuleStride = false;
    FastPathChecker checker(*fx.itc, fx.prog, config);
    auto result = checker.checkTransitions(
        {transition(0, fx.t0), transition(fx.t0, fx.t1)});
    EXPECT_EQ(result.verdict, CheckVerdict::Suspicious);
    EXPECT_EQ(result.highCreditEdges, 0u);
}

TEST(FastPath, CredRatioThresholdApplies)
{
    Fixture fx;
    const int64_t edge = fx.itc->findEdge(fx.t0, fx.t1);
    fx.itc->setHighCredit(edge);

    // Window contains the high-credit edge twice and... only that
    // edge exists, so ratio is 1.0 regardless; instead lower the
    // threshold and check a low-credit window passes at 0.0.
    analysis::ItcCfg fresh = analysis::ItcCfg::build(*fx.cfg);
    FastPathConfig lax;
    lax.credRatio = 0.0;
    lax.requireModuleStride = false;
    FastPathChecker checker(fresh, fx.prog, lax);
    auto result = checker.checkTransitions(
        {transition(0, fx.t0), transition(fx.t0, fx.t1)});
    EXPECT_EQ(result.verdict, CheckVerdict::Pass);
}

TEST(FastPath, TntMismatchMakesSuspicious)
{
    Fixture fx;
    const int64_t edge = fx.itc->findEdge(fx.t0, fx.t1);
    fx.itc->setHighCredit(edge);
    fx.itc->addTntSequence(edge, analysis::TntSequence{1, 0});

    FastPathConfig config;
    config.pktCount = 4;
    config.requireModuleStride = false;
    FastPathChecker checker(*fx.itc, fx.prog, config);
    // Index >= 2 so the TNT check is active (not the window head).
    auto result = checker.checkTransitions(
        {transition(0, fx.t0), transition(fx.t0, fx.t1, {1, 0}),
         transition(fx.t0, fx.t1, {0, 0})});
    EXPECT_EQ(result.verdict, CheckVerdict::Suspicious);
    EXPECT_EQ(result.tntMismatches, 1u);
}

TEST(FastPath, WindowHeadTntExemptFromMatching)
{
    Fixture fx;
    const int64_t edge = fx.itc->findEdge(fx.t0, fx.t1);
    fx.itc->setHighCredit(edge);
    fx.itc->addTntSequence(edge, analysis::TntSequence{1, 0});

    FastPathConfig config;
    config.pktCount = 2;
    config.requireModuleStride = false;
    FastPathChecker checker(*fx.itc, fx.prog, config);
    // The first real edge after the head may have truncated TNT.
    auto result = checker.checkTransitions(
        {transition(0, fx.t0), transition(fx.t0, fx.t1, {0})});
    EXPECT_EQ(result.verdict, CheckVerdict::Pass);
}

TEST(FastPath, PktCountBoundsWindow)
{
    Fixture fx;
    const int64_t edge = fx.itc->findEdge(fx.t0, fx.t1);
    fx.itc->setHighCredit(edge);

    FastPathConfig config;
    config.pktCount = 2;
    config.requireModuleStride = false;
    FastPathChecker checker(*fx.itc, fx.prog, config);
    // Violating transition sits outside the last-2-TIPs window.
    std::vector<decode::TipTransition> all{
        transition(0, fx.t1), transition(fx.t1, fx.t0),  // violation
        transition(fx.t0, fx.t1), transition(fx.t0, fx.t1)};
    auto result = checker.checkTransitions(all);
    EXPECT_EQ(result.verdict, CheckVerdict::Pass);
    EXPECT_EQ(result.tipsChecked, 2u);

    // A wider window reaches it.
    config.pktCount = 4;
    FastPathChecker wide(*fx.itc, fx.prog, config);
    EXPECT_EQ(wide.checkTransitions(all).verdict,
              CheckVerdict::Violation);
}

TEST(FastPath, ChargesCheckCycles)
{
    Fixture fx;
    cpu::CycleAccount account;
    FastPathConfig config;
    config.requireModuleStride = false;
    FastPathChecker checker(*fx.itc, fx.prog, config, &account);
    checker.checkTransitions(
        {transition(0, fx.t0), transition(fx.t0, fx.t1)});
    EXPECT_DOUBLE_EQ(account.check,
                     2 * cpu::cost::check_per_edge);
}

} // namespace

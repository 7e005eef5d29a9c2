/**
 * @file
 * Unit tests for ITC-CFG reconstruction: IT-BB selection, the
 * first-indirect-successor edge rule (Figure 3), cycles in the direct
 * subgraph, lookup structure, credit and TNT annotations.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <utility>

#include "analysis/aia.hh"
#include "analysis/cfg_builder.hh"
#include "analysis/itc_cfg.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;
using namespace flowguard::analysis;

/** The Figure 3 shape: entry dispatch to handlers through a table,
 *  handlers return, a direct-only region connects to another indirect
 *  branch. */
Program
figureProgram()
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.funcPtrTable("tbl", {"h0", "h1"});
    mod.function("h0", /*exported=*/false);
    mod.aluImm(AluOp::Add, 6, 1);
    mod.ret();
    mod.function("h1", /*exported=*/false);
    mod.aluImm(AluOp::Add, 6, 2);
    mod.ret();
    mod.function("main");
    mod.movImmData(1, "tbl");
    mod.load(2, 1, 0);
    mod.callInd(2);             // indirect: h0/h1 become IT-BBs
    mod.nop();                  // direct flow after the return site
    mod.load(2, 1, 8);
    mod.callInd(2);             // second indirect site
    mod.halt();
    return Loader().addExecutable(mod.build()).link();
}

TEST(ItcCfg, OnlyIndirectTargetsBecomeNodes)
{
    Program prog = figureProgram();
    Cfg cfg = buildCfg(prog);
    ItcCfg itc = ItcCfg::build(cfg);
    std::set<uint32_t> indirect_targets;
    for (const Edge &edge : cfg.edges())
        if (edgeIsIndirect(edge.kind))
            indirect_targets.insert(edge.to);
    EXPECT_EQ(itc.numNodes(), indirect_targets.size());
    // h0, h1 entries and the two return sites are IT-BBs; main's
    // entry is not.
    EXPECT_GE(itc.findNode(prog.funcAddr("m", "h0")), 0);
    EXPECT_GE(itc.findNode(prog.funcAddr("m", "h1")), 0);
    EXPECT_LT(itc.findNode(prog.funcAddr("m", "main")), 0);
}

TEST(ItcCfg, EdgesFollowFirstIndirectSuccessorRule)
{
    Program prog = figureProgram();
    Cfg cfg = buildCfg(prog);
    ItcCfg itc = ItcCfg::build(cfg);
    const uint64_t h0 = prog.funcAddr("m", "h0");
    const uint64_t h1 = prog.funcAddr("m", "h1");
    const uint64_t main_addr = prog.funcAddr("m", "main");
    // First return site: after callInd at main+6+4+3.
    const uint64_t ret1 = main_addr + 6 + 4 + 3;
    // h0's ret lands at ret1/ret2; from ret1 the direct path reaches
    // the second callInd whose targets are h0/h1.
    EXPECT_GE(itc.findEdge(h0, ret1), 0);
    EXPECT_GE(itc.findEdge(ret1, h0), 0);
    EXPECT_GE(itc.findEdge(ret1, h1), 0);
    // But h0 does not connect directly to h1: the path from h0's
    // entry must cross its own ret (an indirect edge) first.
    EXPECT_LT(itc.findEdge(h0, h1), 0);
}

TEST(ItcCfg, DirectCyclesHandled)
{
    // A direct loop between the indirect branch and its targets must
    // not hang the SCC pass.
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("t", /*exported=*/false);
    mod.halt();
    mod.function("main");
    mod.label("top");
    mod.aluImm(AluOp::Add, 6, 1);
    mod.cmpImm(6, 10);
    mod.jcc(Cond::Lt, "top");       // direct cycle
    mod.movImmFunc(1, "t");
    mod.jmpInd(1);
    Program prog = Loader().addExecutable(mod.build()).link();
    Cfg cfg = buildCfg(prog);
    ItcCfg itc = ItcCfg::build(cfg);
    EXPECT_GE(itc.findNode(prog.funcAddr("m", "t")), 0);
}

TEST(ItcCfg, TargetsSortedForBinarySearch)
{
    Program prog = figureProgram();
    ItcCfg itc = ItcCfg::build(buildCfg(prog));
    for (size_t node = 0; node < itc.numNodes(); ++node) {
        const uint64_t *begin = itc.targetsBegin(node);
        const uint64_t *end = itc.targetsEnd(node);
        EXPECT_TRUE(std::is_sorted(begin, end));
    }
}

TEST(ItcCfg, FindEdgeNegativeCases)
{
    Program prog = figureProgram();
    ItcCfg itc = ItcCfg::build(buildCfg(prog));
    EXPECT_EQ(itc.findEdge(0xdead, 0xbeef), -1);
    const uint64_t h0 = prog.funcAddr("m", "h0");
    EXPECT_EQ(itc.findEdge(h0, 0xdead), -1);
}

TEST(ItcCfg, CreditsStartLowAndStick)
{
    Program prog = figureProgram();
    ItcCfg itc = ItcCfg::build(buildCfg(prog));
    ASSERT_GT(itc.numEdges(), 0u);
    EXPECT_EQ(itc.highCreditCount(), 0u);
    EXPECT_DOUBLE_EQ(itc.highCreditRatio(), 0.0);
    itc.setHighCredit(0);
    EXPECT_TRUE(itc.highCredit(0));
    EXPECT_EQ(itc.highCreditCount(), 1u);
}

TEST(ItcCfg, TntSequencesDedupAndSaturate)
{
    Program prog = figureProgram();
    ItcCfg itc = ItcCfg::build(buildCfg(prog));
    ASSERT_GT(itc.numEdges(), 0u);

    itc.addTntSequence(0, {1, 0});
    itc.addTntSequence(0, {1, 0});          // duplicate ignored
    EXPECT_TRUE(itc.hasTntInfo(0));
    EXPECT_TRUE(itc.tntCompatible(0, TntSequence{1, 0}));
    EXPECT_FALSE(itc.tntCompatible(0, TntSequence{0, 1}));
    EXPECT_FALSE(itc.tntCompatible(0, TntSequence{}));

    // Saturate past the variant cap: matching gets disabled.
    for (uint8_t i = 0; i < ItcCfg::max_tnt_variants + 2; ++i)
        itc.addTntSequence(0, {1, 1, i});
    EXPECT_FALSE(itc.hasTntInfo(0));
    EXPECT_TRUE(itc.tntCompatible(0, TntSequence{0, 1}));   // vacuously true
}

TEST(ItcCfg, EdgesWithoutTntInfoAreCompatibleWithAnything)
{
    Program prog = figureProgram();
    ItcCfg itc = ItcCfg::build(buildCfg(prog));
    EXPECT_FALSE(itc.hasTntInfo(0));
    EXPECT_TRUE(itc.tntCompatible(0, TntSequence{1, 1, 1}));
}

TEST(ItcCfg, MemoryAccountingGrowsWithAnnotations)
{
    Program prog = figureProgram();
    ItcCfg itc = ItcCfg::build(buildCfg(prog));
    const size_t before = itc.memoryBytes();
    itc.addTntSequence(0, {1, 0, 1, 0, 1});
    EXPECT_GT(itc.memoryBytes(), before);
}

/** A graph of the Figure 3 program, with `edge` one of its edges. */
struct VersionedGraph
{
    Program prog = figureProgram();
    ItcCfg itc = ItcCfg::build(buildCfg(prog));
    int64_t edge = 0;
    uint64_t from = 0;
    uint64_t to = 0;

    VersionedGraph()
    {
        from = prog.funcAddr("m", "h0");
        to = prog.funcAddr("m", "main") + 6 + 4 + 3;
        edge = itc.findEdge(from, to);
    }
};

TEST(ItcCfgVersion, EveryMutationChangesIt)
{
    VersionedGraph graph;
    ItcCfg &itc = graph.itc;
    ASSERT_GE(graph.edge, 0);
    ASSERT_LT(static_cast<size_t>(graph.edge) + 1, itc.numEdges());
    const int64_t edge = graph.edge;
    const uint8_t outcomes[] = {1, 0};
    const std::pair<const char *, std::function<void()>> mutations[] = {
        {"setHighCredit", [&] { itc.setHighCredit(edge); }},
        {"addTntSequence", [&] { itc.addTntSequence(edge, {1, 1}); }},
        {"learn credit", [&] { itc.learn(edge + 1, {}); }},
        {"learn outcomes", [&] { itc.learn(edge, outcomes); }},
        {"markTntVaried", [&] { itc.markTntVaried(edge); }},
        {"revokeRuntimeCreditsInRange",
         [&] { itc.revokeRuntimeCreditsInRange(0, UINT64_MAX); }},
        {"clearRuntime", [&] { itc.clearRuntime(); }},
        {"enableLiveness", [&] { itc.enableLiveness(); }},
        {"deactivateRange",
         [&] { itc.deactivateRange(graph.from, graph.from + 1); }},
        {"activateRange",
         [&] { itc.activateRange(graph.from, graph.from + 1); }},
        {"applyRebase", [&] { itc.applyRebase(0, UINT64_MAX / 2, 64); }},
    };
    // Each mutation takes a value no graph has held.
    std::set<uint64_t> seen{itc.version()};
    for (const auto &[name, mutate] : mutations) {
        SCOPED_TRACE(name);
        mutate();
        EXPECT_TRUE(seen.insert(itc.version()).second);
    }
    // A graph built afresh takes one too.
    EXPECT_TRUE(seen.insert(ItcCfg::build(buildCfg(graph.prog)).version())
                    .second);
}

TEST(ItcCfgVersion, LookupsAndHeldPairsLeaveIt)
{
    VersionedGraph graph;
    ItcCfg &itc = graph.itc;
    ASSERT_GE(graph.edge, 0);
    const uint8_t outcomes[] = {1, 0};
    EXPECT_TRUE(itc.learn(graph.edge, outcomes));
    itc.setHighCredit(graph.edge);
    itc.addTntSequence(graph.edge, {1, 1});
    const uint64_t version = itc.version();
    // findEdgeCached() fills its cache, and what the graph holds
    // already, given again, is no change.
    EXPECT_EQ(itc.findEdgeCached(graph.from, graph.to), graph.edge);
    EXPECT_EQ(itc.findEdgeCached(0xdead, 0xbeef), -1);
    EXPECT_FALSE(itc.learn(graph.edge, outcomes));
    itc.setHighCredit(graph.edge);
    itc.addTntSequence(graph.edge, {1, 1});
    EXPECT_EQ(itc.version(), version);
}

TEST(ItcCfgVersion, CopyKeepsItAndMoveRestampsTheSource)
{
    VersionedGraph graph;
    ItcCfg &itc = graph.itc;
    itc.setHighCredit(graph.edge);
    const uint64_t version = itc.version();

    ItcCfg copy = itc;
    EXPECT_EQ(copy.version(), version);
    ItcCfg assigned = ItcCfg::build(buildCfg(graph.prog));
    assigned = itc;
    EXPECT_EQ(assigned.version(), version);
    // Copies part ways at their next mutation.
    copy.clearRuntime();
    EXPECT_NE(copy.version(), version);
    EXPECT_EQ(itc.version(), version);

    ItcCfg moved = std::move(assigned);
    EXPECT_EQ(moved.version(), version);
    EXPECT_NE(assigned.version(), version);
    EXPECT_NE(assigned.version(), copy.version());
    ItcCfg target = ItcCfg::build(buildCfg(graph.prog));
    target = std::move(moved);
    EXPECT_EQ(target.version(), version);
    EXPECT_NE(moved.version(), version);
    EXPECT_NE(moved.version(), assigned.version());
}

TEST(ItcCfg, AiaDerogationOnForkedDispatch)
{
    // An IT-BB whose direct fork selects one of two indirect
    // branches: node out-degree exceeds every site's O-CFG set
    // (Figure 4).
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.funcPtrTable("entry", {"d"});
    mod.funcPtrTable("t1", {"a", "b"});
    mod.funcPtrTable("t2", {"c", "e"});
    for (const char *leaf : {"a", "b", "c", "e"}) {
        mod.function(leaf, /*exported=*/false);
        mod.halt();
    }
    mod.function("d", /*exported=*/false);
    mod.cmpImm(0, 1);
    mod.jcc(Cond::Eq, "second");
    mod.movImmData(1, "t1");
    mod.jmp("go");
    mod.label("second");
    mod.movImmData(1, "t2");
    mod.label("go");
    mod.load(2, 1, 0);
    mod.jmpInd(2);
    mod.jumpTableHint("t2", 2);     // hint narrows to one table...
    mod.function("main");
    mod.movImm(0, 1);           // prepare the argument d consumes
    mod.movImmData(1, "entry");
    mod.load(2, 1, 0);
    mod.callInd(2);
    mod.halt();
    Program prog = Loader().addExecutable(mod.build()).link();
    Cfg cfg = buildCfg(prog);
    ItcCfg itc = ItcCfg::build(cfg);
    const int node = itc.findNode(prog.funcAddr("m", "d"));
    ASSERT_GE(node, 0);
    // d's ITC successors include both tables' contents.
    EXPECT_GE(itc.outDegree(static_cast<size_t>(node)), 2u);
}

} // namespace

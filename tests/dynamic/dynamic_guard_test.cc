/**
 * @file
 * DynamicGuard tests: incremental ITC-CFG merge/retract driven by
 * CodeEvents, cross-module edge stitching, runtime-credit revocation,
 * and the exact invalidation accounting identity
 *
 *   cacheInvalidations == stagedDropped + committedDropped
 */

#include <gtest/gtest.h>

#include "core/flowguard.hh"
#include "dynamic/dynamic_guard.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::dynamic;

workloads::PluginServerSpec
smallSpec()
{
    workloads::PluginServerSpec spec;
    spec.numPlugins = 2;
    spec.handlersPerPlugin = 2;
    spec.workPerCall = 6;
    spec.numFillerFuncs = 8;
    spec.seed = 5;
    spec.cr3 = 0x5100;
    return spec;
}

class DynamicGuardTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        app = new workloads::SyntheticApp(
            workloads::buildPluginServerApp(smallSpec()));
        guard = new FlowGuard(app->program);
        guard->analyze();
    }

    static void
    TearDownTestSuite()
    {
        delete guard;
        delete app;
        guard = nullptr;
        app = nullptr;
    }

    static cpu::CodeEvent
    moduleEvent(cpu::CodeEventKind kind, size_t index)
    {
        const auto &mod = app->program.modules()[index];
        cpu::CodeEvent event;
        event.kind = kind;
        event.cr3 = app->program.cr3();
        event.moduleIndex = static_cast<int32_t>(index);
        event.base = mod.codeBase;
        event.end = mod.codeEnd;
        return event;
    }

    /** First ITC edge wholly inside module `index`'s code range. */
    static int64_t
    edgeInModule(const analysis::ItcCfg &itc, size_t index)
    {
        const auto &mod = app->program.modules()[index];
        for (size_t n = 0; n < itc.numNodes(); ++n) {
            const uint64_t addr = itc.nodeAddr(n);
            if (addr < mod.codeBase || addr >= mod.codeEnd)
                continue;
            if (itc.outDegree(n) == 0)
                continue;
            return itc.findEdge(addr, *itc.targetsBegin(n));
        }
        return -1;
    }

    static workloads::SyntheticApp *app;
    static FlowGuard *guard;
};

workloads::SyntheticApp *DynamicGuardTest::app = nullptr;
FlowGuard *DynamicGuardTest::guard = nullptr;

TEST_F(DynamicGuardTest, StartUnloadedRetractsPluginSubgraphs)
{
    analysis::ItcCfg &itc = guard->itc();
    DynamicGuard dyn(app->program, itc);

    // All modules live at construction.
    for (uint32_t m : app->dynamicModules)
        EXPECT_TRUE(dyn.map().moduleLive(m));

    dyn.startUnloaded(app->dynamicModules);
    const auto &mod = app->program.modules()[app->dynamicModules[0]];
    EXPECT_EQ(dyn.map().classify(mod.codeBase).cls,
              AddrClass::StaleModule);
    // The plugins contain IT-BBs (their exported handlers are
    // address-taken), so retraction must have touched the graph.
    EXPECT_GT(dyn.stats().nodesRetracted + dyn.stats().edgesRetracted,
              0u);
    EXPECT_TRUE(dyn.stats().accountingBalances());

    // Restore for the other tests (shared ITC-CFG).
    for (uint32_t m : app->dynamicModules)
        dyn.onCodeEvent(
            moduleEvent(cpu::CodeEventKind::ModuleLoad, m));
}

TEST_F(DynamicGuardTest, LoadStitchesCrossModuleEdges)
{
    analysis::ItcCfg &itc = guard->itc();
    DynamicGuard dyn(app->program, itc);
    dyn.startUnloaded(app->dynamicModules);

    const uint32_t plugin = app->dynamicModules[0];
    dyn.onCodeEvent(
        moduleEvent(cpu::CodeEventKind::ModuleLoad, plugin));

    EXPECT_EQ(dyn.stats().moduleLoads, 1u);
    EXPECT_TRUE(dyn.map().moduleLive(plugin));
    EXPECT_GT(dyn.stats().edgesActivated, 0u);
    // The executable's callInd sites target the plugin's handlers
    // and the plugin's PLT returns re-enter libc: in-edges from
    // outside the range are exactly the cross-module stitches.
    EXPECT_GT(dyn.stats().crossEdgesStitched, 0u);

    // Restore.
    for (uint32_t m : app->dynamicModules)
        if (m != plugin)
            dyn.onCodeEvent(
                moduleEvent(cpu::CodeEventKind::ModuleLoad, m));
}

TEST_F(DynamicGuardTest, InvalidationAccountingBalancesExactly)
{
    analysis::ItcCfg &itc = guard->itc();
    DynamicGuard dyn(app->program, itc);

    const uint32_t plugin = app->dynamicModules[0];
    const int64_t edge = edgeInModule(itc, plugin);
    ASSERT_GE(edge, 0) << "plugin module contributes no ITC edges";

    // Simulate verdict-cache state touching the plugin: one committed
    // runtime credit on a plugin-range edge, and a hook holding two
    // staged entries for any range that covers it.
    ASSERT_TRUE(itc.learn(edge, {}));
    ASSERT_TRUE(itc.runtimeCredit(edge));
    const auto &mod = app->program.modules()[plugin];
    dyn.registerInvalidationHook(
        [&](uint64_t begin, uint64_t end) -> size_t {
            return (begin <= mod.codeBase && mod.codeEnd <= end) ? 2
                                                                 : 0;
        });

    dyn.onCodeEvent(
        moduleEvent(cpu::CodeEventKind::ModuleUnload, plugin));

    const DynamicStats &stats = dyn.stats();
    EXPECT_EQ(stats.moduleUnloads, 1u);
    EXPECT_EQ(stats.stagedDropped, 2u);
    EXPECT_GE(stats.committedDropped, 1u);
    EXPECT_EQ(stats.cacheInvalidations,
              stats.stagedDropped + stats.committedDropped);
    EXPECT_TRUE(stats.accountingBalances());
    // The committed runtime credit is gone; trained credit policy is
    // untouched (it rides the retracted sub-graph).
    EXPECT_FALSE(itc.runtimeCredit(edge));

    // Restore.
    dyn.onCodeEvent(
        moduleEvent(cpu::CodeEventKind::ModuleLoad, plugin));
    itc.clearRuntime();
}

TEST_F(DynamicGuardTest, JitEventsTrackRegions)
{
    analysis::ItcCfg &itc = guard->itc();
    DynamicGuard dyn(app->program, itc, JitPolicy::AuditOnly);
    EXPECT_EQ(dyn.policy(), JitPolicy::AuditOnly);

    cpu::CodeEvent event;
    event.kind = cpu::CodeEventKind::JitRegionMap;
    event.cr3 = app->program.cr3();
    event.base = isa::layout::jit_base;
    event.end = isa::layout::jit_base + isa::layout::page;
    dyn.onCodeEvent(event);
    EXPECT_EQ(dyn.stats().jitMaps, 1u);
    EXPECT_EQ(dyn.map().classify(event.base + 4).cls,
              AddrClass::JitRegion);

    event.kind = cpu::CodeEventKind::JitRegionUnmap;
    dyn.onCodeEvent(event);
    EXPECT_EQ(dyn.stats().jitUnmaps, 1u);
    EXPECT_EQ(dyn.map().classify(event.base + 4).cls,
              AddrClass::Unknown);
    EXPECT_TRUE(dyn.stats().accountingBalances());
}

TEST_F(DynamicGuardTest, RebaseMovesNodesAndRevokesRange)
{
    analysis::ItcCfg &itc = guard->itc();
    DynamicGuard dyn(app->program, itc);

    const uint32_t plugin = app->dynamicModules[1];
    const auto &mod = app->program.modules()[plugin];
    const int64_t edge = edgeInModule(itc, plugin);
    ASSERT_GE(edge, 0);

    // Find a node inside the plugin before the move.
    int64_t node_addr = -1;
    for (size_t n = 0; n < itc.numNodes(); ++n) {
        if (itc.nodeAddr(n) >= mod.codeBase &&
            itc.nodeAddr(n) < mod.codeEnd) {
            node_addr = static_cast<int64_t>(itc.nodeAddr(n));
            break;
        }
    }
    ASSERT_GE(node_addr, 0);

    const int64_t delta = 0x8000;
    cpu::CodeEvent event = moduleEvent(cpu::CodeEventKind::Rebase,
                                       plugin);
    event.newBase = mod.codeBase + static_cast<uint64_t>(delta);
    dyn.onCodeEvent(event);

    EXPECT_EQ(dyn.stats().rebases, 1u);
    EXPECT_EQ(dyn.map().region(plugin).base, event.newBase);
    // The node follows the module; the old address is gone.
    EXPECT_LT(itc.findNode(static_cast<uint64_t>(node_addr)), 0);
    EXPECT_GE(itc.findNode(static_cast<uint64_t>(node_addr + delta)),
              0);
    EXPECT_TRUE(dyn.stats().accountingBalances());

    // Move it back so the suite-shared graph is untouched.
    cpu::CodeEvent back = event;
    back.base = event.newBase;
    back.end = event.newBase + (mod.codeEnd - mod.codeBase);
    back.newBase = mod.codeBase;
    dyn.onCodeEvent(back);
    EXPECT_GE(itc.findNode(static_cast<uint64_t>(node_addr)), 0);
}

TEST_F(DynamicGuardTest, IgnoresEventsForOtherAddressSpaces)
{
    analysis::ItcCfg &itc = guard->itc();
    DynamicGuard dyn(app->program, itc);

    cpu::CodeEvent event =
        moduleEvent(cpu::CodeEventKind::ModuleUnload,
                    app->dynamicModules[0]);
    event.cr3 = app->program.cr3() + 0x9999;
    dyn.onCodeEvent(event);
    EXPECT_EQ(dyn.stats().moduleUnloads, 0u);
    EXPECT_TRUE(dyn.map().moduleLive(app->dynamicModules[0]));
}

} // namespace

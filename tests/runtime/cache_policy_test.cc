/**
 * @file
 * Verdict-cache policy regressions (§7.1.1 under degraded
 * conditions): a slow-path pass only earns durable high-credit
 * labels when the verdict was (a) delivered in time and undeferred —
 * the two-phase stage/commit contract the protection service relies
 * on — and (b) computed from a lossless window, even when the loss
 * policy is the permissive LogAndPass.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <vector>

#include "analysis/cfg_builder.hh"
#include "analysis/itc_cfg.hh"
#include "analysis/typearmor.hh"
#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "runtime/monitor.hh"
#include "trace/ipt.hh"
#include "trace/ipt_packets.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::runtime;

workloads::ServerSpec
miniSpec()
{
    workloads::ServerSpec spec;
    spec.name = "cache";
    spec.numHandlers = 3;
    spec.numParserStates = 2;
    spec.numFillerFuncs = 10;
    spec.fillerTableSlots = 4;
    spec.workPerRequest = 30;
    spec.seed = 5;
    spec.cr3 = 0x999;
    return spec;
}

/** Analysis artifacts + a raw trace snapshot of one benign run. */
struct TraceFixture
{
    workloads::SyntheticApp app;
    analysis::TypeArmorInfo typearmor;
    analysis::Cfg cfg;
    analysis::ItcCfg itc;
    std::vector<uint8_t> packets;
    uint64_t overflows = 0;

    explicit TraceFixture(std::vector<size_t> topa_regions,
                          size_t pmi_latency = 0,
                          size_t requests = 6)
        : app(workloads::buildServerApp(miniSpec())),
          typearmor(analysis::analyzeTypeArmor(app.program)),
          cfg(analysis::buildCfg(app.program, &typearmor)),
          itc(analysis::ItcCfg::build(cfg))
    {
        trace::Topa topa(std::move(topa_regions));
        topa.setPmiServiceLatency(pmi_latency);
        trace::IptConfig ipt_config;
        ipt_config.cr3Filter = true;
        ipt_config.cr3Match = app.program.cr3();
        trace::IptEncoder encoder(ipt_config, topa);

        cpu::Cpu cpu(app.program);
        cpu::BasicKernel kernel;
        kernel.setInput(
            workloads::makeBenignStream(requests, 31, 3, 2));
        cpu.setSyscallHandler(&kernel);
        cpu.addTraceSink(&encoder);
        EXPECT_EQ(cpu.run(10'000'000), cpu::Cpu::Stop::Halted);
        encoder.flushTnt();
        packets = topa.snapshot();
        overflows = topa.overflowEpisodes();
    }

    Monitor
    makeMonitor(MonitorConfig config = {})
    {
        return Monitor(app.program, itc, cfg, typearmor, config);
    }
};

TEST(CachePolicy, StagedVerdictIsInvisibleUntilCommit)
{
    // Service-mode monitor (autoCommitCache off): an untrained
    // ITC-CFG escalates the benign window; the slow-path pass stages
    // cache material but must not touch credits until the caller —
    // who alone knows whether the verdict met its deadline — commits.
    TraceFixture fixture({1 << 20});
    MonitorConfig config;
    config.autoCommitCache = false;
    Monitor monitor = fixture.makeMonitor(config);
    const size_t before = fixture.itc.highCreditCount();

    auto fast = monitor.fastPhase(fixture.packets, monitor.pktCount());
    ASSERT_TRUE(fast.needSlow);
    EXPECT_EQ(monitor.slowPhase(fixture.packets, fast.loss),
              CheckVerdict::Pass);
    EXPECT_TRUE(monitor.cachePending());
    EXPECT_EQ(fixture.itc.highCreditCount(), before);
}

TEST(CachePolicy, TimedOutOrDeferredWindowNeverCaches)
{
    // The timed-out/deferred path: discardCache() instead of
    // commitCache(). The credits stay untouched, and a later
    // in-deadline pass of the same window still earns them.
    TraceFixture fixture({1 << 20});
    MonitorConfig config;
    config.autoCommitCache = false;
    Monitor monitor = fixture.makeMonitor(config);
    const size_t before = fixture.itc.highCreditCount();

    auto fast = monitor.fastPhase(fixture.packets, monitor.pktCount());
    ASSERT_TRUE(fast.needSlow);
    EXPECT_EQ(monitor.slowPhase(fixture.packets, fast.loss),
              CheckVerdict::Pass);
    monitor.discardCache();
    EXPECT_FALSE(monitor.cachePending());
    EXPECT_EQ(fixture.itc.highCreditCount(), before);

    // Same window, this time resolved within its deadline.
    EXPECT_EQ(monitor.slowPhase(fixture.packets, fast.loss),
              CheckVerdict::Pass);
    monitor.commitCache();
    EXPECT_FALSE(monitor.cachePending());
    EXPECT_GT(fixture.itc.highCreditCount(), before);
}

TEST(CachePolicy, OnlyTheWalkedWindowEarnsCredit)
{
    // The slow path walks the suffix from its ≥100-TIP anchor, so a
    // pass vouches for that window alone: an edge the ring holds only
    // before the anchor was never checked and must earn no credit,
    // while every edge of the walked window earns it.
    TraceFixture fixture({1 << 20}, /*pmi_latency=*/0, /*requests=*/30);
    const auto edgesOf = [&](const decode::FastDecodeResult &flow) {
        std::vector<int64_t> edges;
        for (const auto &transition : decode::extractTipTransitions(flow)) {
            const int64_t edge =
                fixture.itc.findEdge(transition.from, transition.to);
            if (transition.from != 0 && edge >= 0)
                edges.push_back(edge);
        }
        std::ranges::sort(edges);
        const auto [first, last] = std::ranges::unique(edges);
        edges.erase(first, last);
        return edges;
    };
    const auto window = decode::decodeRecentTips(fixture.packets, 100);
    ASSERT_GT(window.startOffset, 0u);
    const std::vector<int64_t> walked = edgesOf(window);
    std::vector<int64_t> unwalked;
    std::ranges::set_difference(
        edgesOf(decode::decodePacketLayer(fixture.packets)), walked,
        std::back_inserter(unwalked));
    ASSERT_FALSE(walked.empty());
    ASSERT_FALSE(unwalked.empty());

    MonitorConfig config;
    config.autoCommitCache = false;
    Monitor monitor = fixture.makeMonitor(config);
    ASSERT_EQ(monitor.slowPhase(fixture.packets, false),
              CheckVerdict::Pass);
    monitor.commitCache();
    for (const int64_t edge : walked)
        EXPECT_TRUE(fixture.itc.runtimeCredit(edge)) << "edge " << edge;
    for (const int64_t edge : unwalked)
        EXPECT_FALSE(fixture.itc.runtimeCredit(edge)) << "edge " << edge;
}

TEST(CachePolicy, ASlowCheckDropsAPendingStage)
{
    // A stage points into the slow path's decode of its window, so the
    // next slow check drops it, whatever its verdict: callers commit
    // or discard right after slowPhase, and a later commit learns
    // nothing.
    TraceFixture fixture({1 << 20});
    MonitorConfig config;
    config.autoCommitCache = false;
    Monitor monitor = fixture.makeMonitor(config);
    size_t commits = 0;
    monitor.setCommitObserver(
        [&](const Monitor::CreditDelta &) { ++commits; });
    const size_t before = fixture.itc.highCreditCount();
    ASSERT_EQ(monitor.slowPhase(fixture.packets, false), CheckVerdict::Pass);
    ASSERT_TRUE(monitor.cachePending());
    ASSERT_GT(monitor.staged().size(), 10u);

    // A window that enters unmapped code and carries an outcome on.
    std::vector<uint8_t> wild;
    uint64_t last_ip = 0;
    trace::appendPsb(wild);
    trace::appendTipClass(wild, trace::opcode::tip_pge, 0x1234, last_ip);
    trace::appendTnt(wild, 1, 1);
    EXPECT_EQ(monitor.slowPhase(wild, false), CheckVerdict::Violation);

    EXPECT_FALSE(monitor.cachePending());
    EXPECT_TRUE(monitor.staged().empty());
    monitor.commitCache();
    EXPECT_EQ(commits, 0u);
    EXPECT_EQ(fixture.itc.highCreditCount(), before);
}

TEST(CachePolicy, AnInvalidationKeepsTheRestOfTheStage)
{
    // The stage reads the slow checker's views in place; an unload or
    // rebase that touches some of them drops exactly those, twice over,
    // and the commit learns only what is left.
    TraceFixture fixture({1 << 20});
    MonitorConfig config;
    config.autoCommitCache = false;
    Monitor monitor = fixture.makeMonitor(config);
    ASSERT_EQ(monitor.slowPhase(fixture.packets, false), CheckVerdict::Pass);
    ASSERT_GT(monitor.staged().size(), 10u);
    struct Pair
    {
        uint64_t from;
        uint64_t to;
        std::vector<uint8_t> tnt;
        bool operator==(const Pair &) const = default;
    };
    const auto pairsOf = [](std::span<const decode::TransitionView> views) {
        std::vector<Pair> pairs;
        for (const auto &view : views)
            pairs.push_back({view.from, view.to,
                             {view.tnt.begin(), view.tnt.end()}});
        return pairs;
    };
    std::vector<Pair> expect = pairsOf(monitor.staged());

    for (const size_t pick : {size_t{3}, expect.size() / 2}) {
        const uint64_t at = expect[std::min(pick, expect.size() - 1)].to;
        const auto touches = [&](const Pair &pair) {
            return pair.from == at || pair.to == at;
        };
        const size_t dropped = std::erase_if(expect, touches);
        ASSERT_GT(dropped, 0u);
        EXPECT_EQ(monitor.invalidateStaged(at, at + 1), dropped);
        EXPECT_EQ(pairsOf(monitor.staged()), expect);
    }
    EXPECT_TRUE(monitor.cachePending());
    monitor.commitCache();
    for (const Pair &pair : expect) {
        const int64_t edge = fixture.itc.findEdge(pair.from, pair.to);
        if (pair.from != 0 && edge >= 0) {
            EXPECT_TRUE(fixture.itc.runtimeCredit(edge));
        }
    }
}

TEST(CachePolicy, LegacyAutoCommitStillCaches)
{
    // The single-process §7.1.1 behavior is unchanged: the slow
    // phase applies the verdict cache as soon as it vouches.
    TraceFixture fixture({1 << 20});
    Monitor monitor = fixture.makeMonitor();
    const size_t before = fixture.itc.highCreditCount();
    auto fast = monitor.fastPhase(fixture.packets, monitor.pktCount());
    ASSERT_TRUE(fast.needSlow);
    EXPECT_EQ(monitor.slowPhase(fixture.packets, fast.loss),
              CheckVerdict::Pass);
    EXPECT_GT(monitor.stats().slowChecks, 0u);
    EXPECT_GT(fixture.itc.highCreditCount(), before);
    EXPECT_FALSE(monitor.cachePending());
}

TEST(CachePolicy, LogAndPassLossyWindowNeverCaches)
{
    // LogAndPass accepts the lossy window, but acceptance is not
    // endorsement: a verdict computed from a damaged buffer must not
    // promote edges to high credit, or an attacker who can provoke
    // overflow would poison the cache with half-seen windows.
    TraceFixture fixture({1024}, /*pmi_latency=*/512,
                         /*requests=*/30);
    ASSERT_GT(fixture.overflows, 0u);   // the window really lost trace

    MonitorConfig config;
    config.lossPolicy = LossPolicy::LogAndPass;
    config.fastPath.pktCount = 1'000'000;   // cover the whole buffer
    Monitor monitor = fixture.makeMonitor(config);
    const size_t before = fixture.itc.highCreditCount();

    auto fast = monitor.fastPhase(fixture.packets, monitor.pktCount());
    const CheckVerdict verdict = fast.needSlow
        ? monitor.slowPhase(fixture.packets, fast.loss)
        : fast.verdict;
    EXPECT_NE(verdict, CheckVerdict::Violation);
    EXPECT_GE(monitor.stats().lossWindows, 1u);
    EXPECT_GE(monitor.stats().lossAccepted, 1u);
    EXPECT_EQ(fixture.itc.highCreditCount(), before);
    EXPECT_FALSE(monitor.cachePending());
}

} // namespace

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

#include <vector>

#include "analysis/cfg_builder.hh"
#include "analysis/itc_cfg.hh"
#include "analysis/typearmor.hh"
#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "runtime/monitor.hh"
#include "trace/ipt.hh"
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

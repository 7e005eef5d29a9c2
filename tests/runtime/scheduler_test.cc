/**
 * @file
 * CheckScheduler unit tests: the bounded-queue / deadline / overload
 * policy contract, pinned with synthetic executors so every cycle is
 * controlled.
 *
 * The invariants under test:
 *  - only inline, in-deadline passes commit the verdict cache; every
 *    timed-out, deferred or violating window discards it;
 *  - FailClosed convicts without burning the core once the backlog
 *    alone exceeds the deadline;
 *  - DeferAndRecheck delivers every verdict eventually, with its age;
 *  - AuditOnly still computes verdicts it will not enforce;
 *  - the queue never silently drops: audit work sheds (counted),
 *    enforcement work force-runs, and the accounting identity
 *    submitted = resolved + shed + dropped + pending always holds;
 *  - a request that runs within submit() reads its window where it
 *    lies, and only a queued one owns a copy of the bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "runtime/scheduler.hh"

namespace {

using namespace flowguard::runtime;

struct Probe
{
    uint64_t runs = 0;
    uint64_t commits = 0;
    uint64_t discards = 0;
    /** (cr3, verdict, age) per deferred delivery. */
    std::vector<std::tuple<uint64_t, CheckVerdict, uint64_t>>
        delivered;
};

CheckRequest
request(uint64_t cr3, bool audit = false)
{
    CheckRequest req;
    req.cr3 = cr3;
    req.seq = 1;
    req.syscall = 4;
    req.audit = audit;
    return req;
}

/** Scheduler whose executor always returns `verdict` at `cost`. */
CheckScheduler
makeScheduler(SchedulerConfig config, Probe &probe,
              CheckVerdict verdict, uint64_t cost)
{
    return CheckScheduler(
        config,
        [&probe, verdict, cost](const CheckRequest &) {
            ++probe.runs;
            CheckExecution exec;
            exec.verdict = verdict;
            exec.costCycles = cost;
            return exec;
        },
        [&probe](const CheckRequest &, bool commit) {
            if (commit)
                ++probe.commits;
            else
                ++probe.discards;
        },
        [&probe](const CheckRequest &req, const CheckExecution &exec,
                 uint64_t age) {
            probe.delivered.emplace_back(req.cr3, exec.verdict, age);
        });
}

TEST(Scheduler, InlinePassWithinDeadlineCommitsCache)
{
    SchedulerConfig config;
    config.deadlineCycles = 1'000;
    Probe probe;
    auto sched =
        makeScheduler(config, probe, CheckVerdict::Pass, 100);

    auto outcome = sched.submit(request(1), /*now=*/0);
    EXPECT_EQ(outcome.resolution, CheckResolution::InlinePass);
    EXPECT_TRUE(outcome.exec.ran);
    EXPECT_EQ(probe.runs, 1u);
    EXPECT_EQ(probe.commits, 1u);
    EXPECT_EQ(probe.discards, 0u);
    EXPECT_TRUE(sched.accountingBalances());
}

TEST(Scheduler, InlineViolationDiscardsCache)
{
    SchedulerConfig config;
    config.deadlineCycles = 1'000;
    Probe probe;
    auto sched =
        makeScheduler(config, probe, CheckVerdict::Violation, 100);

    auto outcome = sched.submit(request(1), 0);
    EXPECT_EQ(outcome.resolution, CheckResolution::InlineViolation);
    EXPECT_EQ(outcome.exec.verdict, CheckVerdict::Violation);
    EXPECT_EQ(probe.commits, 0u);
    EXPECT_EQ(probe.discards, 1u);
    EXPECT_TRUE(sched.accountingBalances());
}

TEST(Scheduler, FailClosedConvictsBacklogWithoutRunning)
{
    SchedulerConfig config;
    config.policy = OverloadPolicy::FailClosed;
    config.deadlineCycles = 100;
    Probe probe;
    auto sched =
        makeScheduler(config, probe, CheckVerdict::Pass, 10'000);

    // Each of the first two runs, misses its deadline, and occupies
    // the core up to the deadline (then the core abandons it). The
    // third submission's queue wait alone exceeds the deadline, so
    // it is convicted without ever executing.
    auto first = sched.submit(request(1), 0);
    auto second = sched.submit(request(2), 0);
    auto third = sched.submit(request(3), 0);
    EXPECT_EQ(first.resolution, CheckResolution::TimeoutConviction);
    EXPECT_EQ(second.resolution, CheckResolution::TimeoutConviction);
    EXPECT_EQ(third.resolution, CheckResolution::TimeoutConviction);
    EXPECT_TRUE(first.exec.ran);
    EXPECT_FALSE(third.exec.ran);
    EXPECT_EQ(probe.runs, 2u);
    // Timed-out passes must never earn credit.
    EXPECT_EQ(probe.commits, 0u);
    EXPECT_EQ(probe.discards, 2u);
    EXPECT_EQ(sched.stats().timeoutConvictions, 3u);
    EXPECT_TRUE(sched.accountingBalances());
}

TEST(Scheduler, DeferDeliversLateVerdictWithAge)
{
    SchedulerConfig config;
    config.policy = OverloadPolicy::DeferAndRecheck;
    config.deadlineCycles = 100;
    Probe probe;
    auto sched =
        makeScheduler(config, probe, CheckVerdict::Violation, 1'000);

    auto outcome = sched.submit(request(7), 0);
    EXPECT_EQ(outcome.resolution, CheckResolution::Deferred);
    EXPECT_EQ(sched.stats().deferred, 1u);
    EXPECT_EQ(sched.depth(), 1u);

    sched.pump(/*now=*/500);        // verdict not yet available
    EXPECT_TRUE(probe.delivered.empty());

    sched.pump(/*now=*/1'000);
    ASSERT_EQ(probe.delivered.size(), 1u);
    EXPECT_EQ(std::get<0>(probe.delivered[0]), 7u);
    EXPECT_EQ(std::get<1>(probe.delivered[0]),
              CheckVerdict::Violation);
    EXPECT_EQ(std::get<2>(probe.delivered[0]), 1'000u);
    // Deferred verdicts never commit cache, even on a pass path.
    EXPECT_EQ(probe.commits, 0u);
    EXPECT_EQ(probe.discards, 1u);
    EXPECT_TRUE(sched.accountingBalances());
    EXPECT_EQ(sched.stats().deferralAges.count(), 1u);
}

TEST(Scheduler, DeferBacklogRechecksAtDelivery)
{
    SchedulerConfig config;
    config.policy = OverloadPolicy::DeferAndRecheck;
    config.deadlineCycles = 100;
    Probe probe;
    auto sched =
        makeScheduler(config, probe, CheckVerdict::Pass, 1'000);

    sched.submit(request(1), 0);    // runs late -> deferred executed
    EXPECT_EQ(probe.runs, 1u);
    sched.submit(request(2), 0);    // wait alone > deadline: queued
    EXPECT_EQ(probe.runs, 1u);      //   unexecuted, no core burned yet
    EXPECT_EQ(sched.depth(), 2u);

    sched.pump(/*now=*/5'000);
    EXPECT_EQ(probe.runs, 2u);      // delivery-time recheck ran
    ASSERT_EQ(probe.delivered.size(), 2u);
    EXPECT_EQ(std::get<2>(probe.delivered[0]), 1'000u);
    EXPECT_EQ(std::get<2>(probe.delivered[1]), 2'000u);
    EXPECT_EQ(probe.commits, 0u);
    EXPECT_TRUE(sched.accountingBalances());
}

TEST(Scheduler, AuditOnlyWaivesButComputesVerdict)
{
    SchedulerConfig config;
    config.policy = OverloadPolicy::AuditOnly;
    config.deadlineCycles = 100;
    Probe probe;
    auto sched =
        makeScheduler(config, probe, CheckVerdict::Violation, 1'000);

    auto outcome = sched.submit(request(1), 0);
    EXPECT_EQ(outcome.resolution, CheckResolution::AuditWaived);
    EXPECT_TRUE(outcome.exec.ran);
    EXPECT_EQ(outcome.exec.verdict, CheckVerdict::Violation);

    // Even a hopeless backlog still computes the verdict for the log.
    auto backlog = sched.submit(request(2), 0);
    EXPECT_EQ(backlog.resolution, CheckResolution::AuditWaived);
    EXPECT_TRUE(backlog.exec.ran);
    EXPECT_EQ(probe.runs, 2u);
    EXPECT_EQ(probe.commits, 0u);
    EXPECT_EQ(sched.stats().auditWaived, 2u);
    EXPECT_TRUE(sched.accountingBalances());
}

TEST(Scheduler, FullQueueShedsAuditWorkFirst)
{
    SchedulerConfig config;
    config.policy = OverloadPolicy::DeferAndRecheck;
    config.deadlineCycles = 10;
    config.queueCapacity = 2;
    Probe probe;
    auto sched =
        makeScheduler(config, probe, CheckVerdict::Pass, 1'000);

    sched.submit(request(1), 0);
    sched.submit(request(2), 0);
    EXPECT_EQ(sched.depth(), 2u);

    auto shed = sched.submit(request(3, /*audit=*/true), 0);
    EXPECT_EQ(shed.resolution, CheckResolution::Shed);
    EXPECT_EQ(sched.stats().shedAudit, 1u);
    EXPECT_EQ(sched.depth(), 2u);
    EXPECT_TRUE(sched.accountingBalances());
}

TEST(Scheduler, FullQueueForceRunsOldestEnforcement)
{
    SchedulerConfig config;
    config.policy = OverloadPolicy::DeferAndRecheck;
    config.deadlineCycles = 10;
    config.queueCapacity = 2;
    Probe probe;
    auto sched =
        makeScheduler(config, probe, CheckVerdict::Pass, 1'000);

    sched.submit(request(1), 0);
    sched.submit(request(2), 0);
    auto third = sched.submit(request(3), 0);   // queue full, no audit
    EXPECT_EQ(third.resolution, CheckResolution::Deferred);

    // The oldest enforcement item was force-run and delivered —
    // blocked, not dropped.
    EXPECT_EQ(sched.stats().forcedRuns, 1u);
    EXPECT_EQ(sched.stats().deferredDelivered, 1u);
    EXPECT_EQ(sched.stats().shedAudit, 0u);
    EXPECT_EQ(sched.stats().droppedQuarantined, 0u);
    EXPECT_EQ(sched.depth(), 2u);
    ASSERT_EQ(probe.delivered.size(), 1u);
    EXPECT_EQ(std::get<0>(probe.delivered[0]), 1u);
    EXPECT_TRUE(sched.accountingBalances());
}

TEST(Scheduler, BackpressureRaisesThenDecaysBatchFactor)
{
    SchedulerConfig config;
    config.policy = OverloadPolicy::DeferAndRecheck;
    config.deadlineCycles = 10;
    config.queueCapacity = 16;
    config.depthHighWatermark = 1;
    config.maxBatchFactor = 4;
    Probe probe;
    auto sched =
        makeScheduler(config, probe, CheckVerdict::Pass, 1'000);

    EXPECT_EQ(sched.batchFactor(), 1u);
    sched.submit(request(1), 0);
    sched.submit(request(2), 0);
    sched.submit(request(3), 0);
    EXPECT_GT(sched.batchFactor(), 1u);
    EXPECT_GE(sched.stats().batchRaises, 1u);

    sched.drain(/*now=*/100'000);
    EXPECT_EQ(sched.depth(), 0u);
    // Pressure gone: the factor decays back down.
    sched.pump(100'000);
    sched.pump(100'000);
    sched.pump(100'000);
    EXPECT_EQ(sched.batchFactor(), 1u);
    EXPECT_TRUE(sched.accountingBalances());
}

TEST(Scheduler, DropProcessCountsDroppedWork)
{
    SchedulerConfig config;
    config.policy = OverloadPolicy::DeferAndRecheck;
    config.deadlineCycles = 10;
    Probe probe;
    auto sched =
        makeScheduler(config, probe, CheckVerdict::Pass, 1'000);

    sched.submit(request(7), 0);
    sched.submit(request(9), 0);
    sched.submit(request(7), 0);
    EXPECT_EQ(sched.depth(), 3u);

    sched.dropProcess(7);
    EXPECT_EQ(sched.depth(), 1u);
    EXPECT_EQ(sched.stats().droppedQuarantined, 2u);
    EXPECT_TRUE(sched.accountingBalances());

    sched.drain(100'000);
    ASSERT_EQ(probe.delivered.size(), 1u);
    EXPECT_EQ(std::get<0>(probe.delivered[0]), 9u);
    EXPECT_TRUE(sched.accountingBalances());
}

/** What the executor saw of each window it ran. */
struct WindowProbe
{
    std::vector<const uint8_t *> data;
    std::vector<std::vector<uint8_t>> bytes;
    std::vector<uint64_t> offsets;
    std::vector<uint64_t> streams;
};

CheckScheduler
makeWindowScheduler(SchedulerConfig config, WindowProbe &probe,
                    uint64_t cost)
{
    return CheckScheduler(
        config,
        [&probe, cost](const CheckRequest &req) {
            probe.data.push_back(req.window.bytes.data());
            probe.bytes.emplace_back(req.window.bytes.begin(),
                                     req.window.bytes.end());
            probe.offsets.push_back(req.window.offset);
            probe.streams.push_back(req.window.stream);
            CheckExecution exec;
            exec.verdict = CheckVerdict::Pass;
            exec.costCycles = cost;
            return exec;
        },
        [](const CheckRequest &, bool) {},
        [](const CheckRequest &, const CheckExecution &, uint64_t) {});
}

TEST(Scheduler, InlineCheckReadsTheRingInPlace)
{
    SchedulerConfig config;
    config.deadlineCycles = UINT64_MAX;     // the synchronous service
    WindowProbe probe;
    auto sched = makeWindowScheduler(config, probe, 100);
    const std::vector<uint8_t> ring = {1, 2, 3, 4};
    CheckRequest req = request(1);
    req.window = {ring, 4096, 7};
    EXPECT_EQ(sched.submit(std::move(req), 0).resolution,
              CheckResolution::InlinePass);
    ASSERT_EQ(probe.data.size(), 1u);
    EXPECT_EQ(probe.data[0], ring.data());
    EXPECT_EQ(probe.offsets[0], 4096u);
    EXPECT_EQ(probe.streams[0], 7u);
}

TEST(Scheduler, QueuedCheckOwnsItsWindow)
{
    SchedulerConfig config;
    config.policy = OverloadPolicy::DeferAndRecheck;
    config.deadlineCycles = 100;
    WindowProbe probe;
    auto sched = makeWindowScheduler(config, probe, 1'000);
    std::vector<uint8_t> ring = {1, 2, 3, 4};

    // Runs late (deferred executed), then queued unexecuted; the ring
    // moves on before the second runs at delivery.
    CheckRequest late = request(1);
    late.window = {ring, 4096, 7};
    EXPECT_EQ(sched.submit(std::move(late), 0).resolution,
              CheckResolution::Deferred);
    CheckRequest backlog = request(2);
    backlog.window = {ring, 4096, 7};
    EXPECT_EQ(sched.submit(std::move(backlog), 0).resolution,
              CheckResolution::Deferred);
    ASSERT_EQ(probe.data.size(), 1u);
    EXPECT_EQ(probe.data[0], ring.data());
    std::fill(ring.begin(), ring.end(), 0);

    sched.drain(/*now=*/5'000);
    ASSERT_EQ(probe.bytes.size(), 2u);
    EXPECT_NE(probe.data[1], ring.data());
    EXPECT_EQ(probe.bytes[1], std::vector<uint8_t>({1, 2, 3, 4}));
    // The copy starts where the window did in its stream, but is no
    // longer the live stream.
    EXPECT_EQ(probe.offsets[1], 4096u);
    EXPECT_EQ(probe.streams[1], 0u);
    EXPECT_TRUE(sched.accountingBalances());
}

TEST(Scheduler, DrainDeliversEverythingAndAgesAreRecorded)
{
    SchedulerConfig config;
    config.policy = OverloadPolicy::DeferAndRecheck;
    config.deadlineCycles = 10;
    Probe probe;
    auto sched =
        makeScheduler(config, probe, CheckVerdict::Pass, 1'000);

    for (uint64_t i = 0; i < 5; ++i)
        sched.submit(request(i), i * 10);
    sched.drain(/*now=*/1'000);

    EXPECT_EQ(sched.depth(), 0u);
    EXPECT_EQ(probe.delivered.size(), 5u);
    const auto &stats = sched.stats();
    EXPECT_EQ(stats.deferredDelivered, 5u);
    EXPECT_EQ(stats.deferralAges.count(), 5u);
    EXPECT_GT(stats.deferralAges.mean(), 0.0);
    EXPECT_GE(stats.deferralAges.quantile(0.9),
              stats.deferralAges.quantile(0.1));
    EXPECT_TRUE(stats.balances(0));
}

} // namespace

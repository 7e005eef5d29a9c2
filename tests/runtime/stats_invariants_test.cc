/**
 * @file
 * Stats accounting identities as code: every identity documented on
 * MonitorStats, ServiceStats and SchedulerStats is checked, each
 * broken book is caught with a message naming the identity, and real
 * runs — inline, service-mode, overloaded, lossy — keep them intact.
 */

#include <gtest/gtest.h>

#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "core/flowguard.hh"
#include "cpu/machine.hh"
#include "runtime/kernel.hh"
#include "runtime/service.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::runtime;

// --- unit: broken books are caught with a reason ---------------------------

TEST(MonitorInvariants, DefaultIsConsistentAndBreaksAreNamed)
{
    MonitorStats stats;
    EXPECT_TRUE(stats.checkInvariants());

    stats.checks = 5;   // nothing accounts for them
    std::string why;
    EXPECT_FALSE(stats.checkInvariants(&why));
    EXPECT_NE(why.find("checks !="), std::string::npos);

    stats = MonitorStats{};
    stats.violations = 1;
    EXPECT_FALSE(stats.checkInvariants(&why));
    EXPECT_NE(why.find("violations !="), std::string::npos);

    stats = MonitorStats{};
    stats.slowChecks = 1;   // neither passed nor convicted
    EXPECT_FALSE(stats.checkInvariants(&why));
    EXPECT_EQ(why, "slowChecks != slowPass + slowViolations");

    stats = MonitorStats{};
    stats.lossWindows = 1;  // a lossy window with no outcome
    EXPECT_FALSE(stats.checkInvariants(&why));
    EXPECT_EQ(why, "lossWindows != lossViolations + lossEscalations "
                   "+ lossAccepted");

    stats = MonitorStats{};
    stats.highCreditEdges = 2;
    stats.edgesChecked = 1;
    EXPECT_FALSE(stats.checkInvariants(&why));
    EXPECT_NE(why.find("highCreditEdges"), std::string::npos);

    stats = MonitorStats{};
    stats.lossWindows = 1;  // a lossy escalation that never escalated
    stats.lossEscalations = 1;
    EXPECT_FALSE(stats.checkInvariants(&why));
    EXPECT_EQ(why, "lossEscalations > escalations");
}

TEST(ServiceInvariants, EndpointPartitionIsEnforced)
{
    ServiceStats stats;
    EXPECT_TRUE(stats.checkInvariants());

    stats.endpointChecks = 10;
    stats.coalesced = 3;
    stats.inlineFastPass = 4;
    stats.inlineFastViolations = 1;
    stats.escalations = 2;
    EXPECT_TRUE(stats.checkInvariants());

    // A fast-phase conviction not counted anywhere — the class of
    // bug inlineFastViolations exists to make visible.
    ++stats.endpointChecks;
    std::string why;
    EXPECT_FALSE(stats.checkInvariants(&why));
    EXPECT_NE(why.find("endpointChecks"), std::string::npos);
}

TEST(ServiceInvariants, AttachAndCrashBoundsAreEnforced)
{
    ServiceStats stats;
    stats.attachAttempts = 2;
    stats.attachRetries = 2;
    stats.attachFailures = 1;   // 3 outcomes from 2 attempts
    std::string why;
    EXPECT_FALSE(stats.checkInvariants(&why));
    EXPECT_NE(why.find("attachAttempts"), std::string::npos);

    stats = ServiceStats{};
    stats.requeuedKills = 1;    // requeued more than was ever wiped
    EXPECT_FALSE(stats.checkInvariants(&why));
    EXPECT_NE(why.find("requeuedKills"), std::string::npos);
}

TEST(SchedulerInvariants, TimeoutPartitionAndQueueBounds)
{
    SchedulerStats stats;
    EXPECT_TRUE(stats.checkInvariants(/*pending=*/0));

    // Every deadline miss resolves to exactly one of
    // {conviction, waiver, deferral}.
    stats.submitted = 3;
    stats.timeouts = 3;
    stats.timeoutConvictions = 1;
    stats.auditWaived = 1;
    stats.deferred = 1;
    stats.deferredDelivered = 1;
    stats.deferralAges.add(10.0);
    stats.maxQueueDepth = 1;
    EXPECT_TRUE(stats.checkInvariants(/*pending=*/0));

    std::string why;
    // A submitted check that left by no counted route.
    ++stats.submitted;
    EXPECT_FALSE(stats.checkInvariants(0, &why));
    EXPECT_EQ(why.rfind("submitted != ", 0), 0u) << why;
    --stats.submitted;

    ++stats.timeouts;
    EXPECT_FALSE(stats.checkInvariants(0, &why));
    EXPECT_NE(why.find("timeouts"), std::string::npos);
    --stats.timeouts;

    // Deliveries never exceed enqueues.
    ++stats.deferredDelivered;
    EXPECT_FALSE(stats.checkInvariants(0, &why));
    --stats.deferredDelivered;

    // Forced (queue-full) deliveries are deliveries.
    stats.forcedRuns = 2;
    EXPECT_FALSE(stats.checkInvariants(0, &why));
    EXPECT_EQ(why, "forcedRuns > deferredDelivered");
    stats.forcedRuns = 0;

    // The deferral-age distribution records exactly the deliveries.
    stats.deferralAges.add(20.0);
    EXPECT_FALSE(stats.checkInvariants(0, &why));
    EXPECT_NE(why.find("deferralAges"), std::string::npos);
}

TEST(SchedulerInvariants, HighWaterMarkMustCoverLiveQueue)
{
    SchedulerStats stats;
    stats.submitted = 2;
    stats.maxQueueDepth = 1;
    std::string why;
    EXPECT_FALSE(stats.checkInvariants(/*pending=*/2, &why));
    EXPECT_NE(why.find("maxQueueDepth"), std::string::npos);
}

// --- end-to-end: real runs keep the books ----------------------------------

class InvariantsE2E : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workloads::ServerSpec spec =
            workloads::serverSuite(/*implant_vuln=*/true)[0];
        app = new workloads::SyntheticApp(
            workloads::buildServerApp(spec));
        catalog = new attacks::GadgetCatalog(
            attacks::scanGadgets(app->program));
        handlers = spec.numHandlers;
        states = spec.numParserStates;
    }

    static void
    TearDownTestSuite()
    {
        delete app;
        delete catalog;
        app = nullptr;
        catalog = nullptr;
    }

    static FlowGuard
    makeGuard(FlowGuardConfig config = {})
    {
        FlowGuard guard(app->program, config);
        guard.analyze();
        std::vector<fuzz::Input> corpus;
        for (uint64_t seed = 1; seed <= 6; ++seed)
            corpus.push_back(workloads::makeBenignStream(
                12, seed, handlers, states));
        guard.trainWithCorpus(corpus);
        return guard;
    }

    static void
    expectMonitorBooksBalance(const MonitorStats &stats)
    {
        std::string why;
        EXPECT_TRUE(stats.checkInvariants(&why)) << why;
    }

    static workloads::SyntheticApp *app;
    static attacks::GadgetCatalog *catalog;
    static size_t handlers;
    static size_t states;
};

workloads::SyntheticApp *InvariantsE2E::app = nullptr;
attacks::GadgetCatalog *InvariantsE2E::catalog = nullptr;
size_t InvariantsE2E::handlers = 0;
size_t InvariantsE2E::states = 0;

TEST_F(InvariantsE2E, BenignAndAttackRunsBalance)
{
    FlowGuard guard = makeGuard();
    auto benign = guard.run(
        workloads::makeBenignStream(20, 40, handlers, states));
    EXPECT_GT(benign.monitor.checks, 0u);
    expectMonitorBooksBalance(benign.monitor);

    auto attack = attacks::buildRopWriteAttack(app->program, *catalog);
    auto convicted = guard.run(attack.request);
    EXPECT_TRUE(convicted.attackDetected);
    expectMonitorBooksBalance(convicted.monitor);
}

TEST_F(InvariantsE2E, LossyRunsBalance)
{
    FlowGuardConfig config;
    config.topaRegions = {2048, 2048};
    config.pmiServiceLatencyBytes = 512;
    config.lossPolicy = runtime::LossPolicy::FailClosed;
    FlowGuard guard = makeGuard(config);
    auto outcome = guard.run(
        workloads::makeBenignStream(8, 40, handlers, states));
    EXPECT_GT(outcome.monitor.lossWindows, 0u);
    expectMonitorBooksBalance(outcome.monitor);
}

TEST_F(InvariantsE2E, ServiceModeFleetBalances)
{
    FlowGuard guard = makeGuard();

    ServiceConfig sconfig;
    // A tight deadline with DeferAndRecheck exercises the timeout
    // partition (convictions, waivers, deferrals) for real.
    sconfig.scheduler.deadlineCycles = 2'000;
    sconfig.scheduler.policy = OverloadPolicy::DeferAndRecheck;
    ProtectionService service(sconfig);
    cpu::Machine machine;
    service.setMachine(machine);

    std::vector<workloads::SyntheticApp> apps;
    for (size_t i = 0; i < 3; ++i) {
        workloads::ServerSpec spec =
            workloads::serverSuite(/*implant_vuln=*/true)[0];
        spec.cr3 = 0xA100 + i;
        apps.push_back(workloads::buildServerApp(spec));
    }
    std::vector<std::unique_ptr<FlowGuard::ProcessHarness>> procs;
    std::vector<std::unique_ptr<FlowGuardKernel>> kernels;
    for (size_t i = 0; i < apps.size(); ++i) {
        procs.push_back(guard.makeProcessHarness(apps[i].program));
        kernels.push_back(std::make_unique<FlowGuardKernel>(
            FlowGuardKernel::Config{}));
        kernels[i]->attachService(service);
        kernels[i]->setInput(workloads::makeBenignStream(
            15, 30 + i, handlers, states));
        procs[i]->cpu->setSyscallHandler(kernels[i].get());
        service.addProcess(apps[i].program.cr3(), *procs[i]->monitor,
                           *procs[i]->encoder, *procs[i]->topa,
                           *procs[i]->cpu, &procs[i]->cycles);
        machine.addProcess(*procs[i]->cpu);
    }
    machine.setQuantum(2'000);
    service.attachAll();
    machine.run(50'000'000);
    // drain() itself re-checks all three books in debug builds.
    service.drain();

    EXPECT_GT(service.stats().endpointChecks, 0u);
    std::string why;
    EXPECT_TRUE(service.stats().checkInvariants(&why)) << why;
    EXPECT_TRUE(service.schedulerStats().checkInvariants(0, &why))
        << why;
    for (size_t i = 0; i < procs.size(); ++i)
        expectMonitorBooksBalance(procs[i]->monitor->stats());
}

} // namespace

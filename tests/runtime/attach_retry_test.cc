/**
 * @file
 * Attach/trace-start retry under injected control-plane faults: the
 * service must converge under a 50% failure rate with deterministic
 * seeded backoff, retry trace-start failures the same way, and
 * surface permanent failures as AttachFailure reports — a distinct
 * kind, never a silent gap in protection.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/flowguard.hh"
#include "runtime/service.hh"
#include "trace/faults.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::runtime;

workloads::ServerSpec
retrySpec(uint64_t cr3)
{
    workloads::ServerSpec spec;
    spec.name = "retry";
    spec.numHandlers = 3;
    spec.numParserStates = 2;
    spec.numFillerFuncs = 10;
    spec.fillerTableSlots = 4;
    spec.workPerRequest = 20;
    spec.seed = 9;
    spec.cr3 = cr3;
    return spec;
}

/** N harnessed processes registered with a fresh service. */
struct RetryRig
{
    FlowGuard guard;
    std::vector<workloads::SyntheticApp> apps;
    std::vector<std::unique_ptr<FlowGuard::ProcessHarness>> procs;
    trace::FaultInjector faults;
    ProtectionService service;

    // At a 50% failure rate a process exhausts its max_attach_attempts
    // tries once in 64 attaches; at this seed none of these rigs' do.
    RetryRig(size_t n, trace::ControlFaultPlan plan,
             uint64_t fault_seed = 78)
        : guard(makeBase()), faults(fault_seed)
    {
        guard.analyze();
        faults.setControlPlan(plan);
        service.setFaultInjector(faults);
        apps.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            apps.push_back(
                workloads::buildServerApp(retrySpec(0xC000 + i)));
            procs.push_back(
                guard.makeProcessHarness(apps[i].program));
            service.addProcess(apps[i].program.cr3(),
                               *procs[i]->monitor,
                               *procs[i]->encoder, *procs[i]->topa,
                               *procs[i]->cpu, &procs[i]->cycles);
        }
    }

  private:
    // The guard only needs a program for analysis; the per-process
    // copies get their own images via makeProcessHarness.
    static FlowGuard
    makeBase()
    {
        static workloads::SyntheticApp *base =
            new workloads::SyntheticApp(
                workloads::buildServerApp(retrySpec(0xC0FF)));
        return FlowGuard(base->program);
    }
};

TEST(AttachRetry, ConvergesUnderHalfFailureRate)
{
    trace::ControlFaultPlan plan;
    plan.attachFailRate = 0.5;
    RetryRig rig(6, plan);

    auto outcome = rig.service.attachAll();
    EXPECT_EQ(outcome.attached, 6u);
    EXPECT_EQ(outcome.failed, 0u);

    const auto &stats = rig.service.stats();
    EXPECT_GT(stats.attachAttempts, 6u);    // some retries happened
    EXPECT_GE(stats.attachRetries, 1u);
    EXPECT_GT(stats.attachBackoffCycles, 0u);
    EXPECT_EQ(stats.attachFailures, 0u);
    for (size_t i = 0; i < 6; ++i)
        EXPECT_TRUE(rig.service.isProtected(0xC000 + i));
}

TEST(AttachRetry, BackoffScheduleIsDeterministic)
{
    trace::ControlFaultPlan plan;
    plan.attachFailRate = 0.5;

    RetryRig first(4, plan);
    RetryRig second(4, plan);
    auto a = first.service.attachAll();
    auto b = second.service.attachAll();

    EXPECT_EQ(a.attached, b.attached);
    EXPECT_EQ(first.service.stats().attachAttempts,
              second.service.stats().attachAttempts);
    EXPECT_EQ(first.service.stats().attachRetries,
              second.service.stats().attachRetries);
    EXPECT_EQ(first.service.stats().attachBackoffCycles,
              second.service.stats().attachBackoffCycles);
}

TEST(AttachRetry, PermanentFailureSurfacesAsReport)
{
    trace::ControlFaultPlan plan;
    plan.attachFailRate = 1.0;
    RetryRig rig(3, plan);

    auto outcome = rig.service.attachAll();
    EXPECT_EQ(outcome.attached, 0u);
    EXPECT_EQ(outcome.failed, 3u);
    EXPECT_EQ(rig.service.stats().attachFailures, 3u);
    EXPECT_EQ(rig.service.stats().attachAttempts,
              3u * max_attach_attempts);

    ASSERT_EQ(rig.service.reports().size(), 3u);
    for (const auto &report : rig.service.reports()) {
        EXPECT_EQ(report.kind,
                  ViolationReport::Kind::AttachFailure);
        EXPECT_FALSE(rig.service.isProtected(report.cr3));
    }
    EXPECT_EQ(rig.service.stats().endpointChecks, 0u);
}

TEST(AttachRetry, TraceStartFailuresAlsoRetried)
{
    trace::ControlFaultPlan plan;
    plan.traceStartFailRate = 0.5;
    RetryRig rig(4, plan);

    auto outcome = rig.service.attachAll();
    EXPECT_EQ(outcome.attached, 4u);
    EXPECT_GE(rig.service.stats().attachRetries, 1u);
    EXPECT_GT(rig.service.stats().attachBackoffCycles, 0u);
}

} // namespace

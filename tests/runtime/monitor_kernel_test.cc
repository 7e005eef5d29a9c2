/**
 * @file
 * Tests for the Monitor (hybrid checking + verdict caching) and the
 * FlowGuardKernel (syscall interception, SIGKILL delivery).
 */

#include <gtest/gtest.h>

#include "analysis/cfg_builder.hh"
#include "core/flowguard.hh"
#include "isa/syscalls.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::runtime;

workloads::ServerSpec
smallSpec()
{
    workloads::ServerSpec spec;
    spec.name = "mini";
    spec.numHandlers = 3;
    spec.numParserStates = 2;
    spec.numFillerFuncs = 10;
    spec.fillerTableSlots = 4;
    spec.workPerRequest = 30;
    spec.seed = 5;
    spec.cr3 = 0x999;
    return spec;
}

TEST(Monitor, SuspiciousWindowGoesSlowThenCaches)
{
    auto spec = smallSpec();
    auto app = workloads::buildServerApp(spec);
    FlowGuard guard(app.program);
    guard.analyze();
    // No training at all: everything is low-credit.
    auto input = workloads::makeBenignStream(
        6, 31, spec.numHandlers, spec.numParserStates);

    auto first = guard.run(input);
    EXPECT_EQ(first.stop, cpu::Cpu::Stop::Halted);
    EXPECT_FALSE(first.attackDetected);
    EXPECT_GT(first.monitor.slowChecks, 0u);
    EXPECT_EQ(first.monitor.slowPass, first.monitor.slowChecks);

    // Verdict caching: the same input now rides the fast path.
    auto second = guard.run(input);
    EXPECT_EQ(second.monitor.slowChecks, 0u);
    EXPECT_EQ(second.monitor.fastPass, second.monitor.checks);
}

TEST(Monitor, CachingCanBeDisabled)
{
    auto spec = smallSpec();
    auto app = workloads::buildServerApp(spec);
    FlowGuardConfig config;
    config.cacheSlowPathVerdicts = false;
    FlowGuard guard(app.program, config);
    guard.analyze();
    auto input = workloads::makeBenignStream(
        6, 31, spec.numHandlers, spec.numParserStates);
    auto first = guard.run(input);
    auto second = guard.run(input);
    EXPECT_EQ(first.monitor.slowChecks, second.monitor.slowChecks);
    EXPECT_GT(second.monitor.slowChecks, 0u);
}

TEST(Monitor, StatsAreCoherent)
{
    auto spec = smallSpec();
    auto app = workloads::buildServerApp(spec);
    FlowGuard guard(app.program);
    guard.analyze();
    auto outcome = guard.run(workloads::makeBenignStream(
        5, 32, spec.numHandlers, spec.numParserStates));
    const auto &stats = outcome.monitor;
    EXPECT_EQ(stats.checks, stats.fastPass + stats.slowChecks);
    EXPECT_LE(stats.highCreditEdges, stats.edgesChecked);
    EXPECT_GE(stats.fastPathRate(), 0.0);
    EXPECT_LE(stats.fastPathRate(), 1.0);
}

TEST(Kernel, OnlyEndpointsOfProtectedProcessIntercepted)
{
    auto spec = smallSpec();
    auto app = workloads::buildServerApp(spec);
    FlowGuard guard(app.program);
    guard.analyze();
    auto input = workloads::makeBenignStream(
        4, 33, spec.numHandlers, spec.numParserStates);
    auto outcome = guard.run(input);
    // One write endpoint per request; accept/recv/socket etc. are
    // not endpoints.
    EXPECT_EQ(outcome.monitor.checks, 4u);
    EXPECT_GT(outcome.syscalls, 8u);
}

TEST(Kernel, CustomEndpointSetRespected)
{
    auto spec = smallSpec();
    auto app = workloads::buildServerApp(spec);
    FlowGuardConfig config;
    config.endpoints = {
        static_cast<int64_t>(isa::Syscall::Gettimeofday)};
    FlowGuard guard(app.program, config);
    guard.analyze();
    auto input = workloads::makeBenignStream(
        4, 33, spec.numHandlers, spec.numParserStates);
    auto outcome = guard.run(input);
    // gettimeofday resolves to the VDSO — never a syscall — so the
    // endpoint never fires; write is no longer checked either.
    EXPECT_EQ(outcome.monitor.checks, 0u);
}

TEST(Kernel, DefaultEndpointsMatchPaper)
{
    auto endpoints = FlowGuardKernel::defaultEndpoints();
    EXPECT_TRUE(endpoints.count(
        static_cast<int64_t>(isa::Syscall::Execve)));
    EXPECT_TRUE(endpoints.count(
        static_cast<int64_t>(isa::Syscall::Mmap)));
    EXPECT_TRUE(endpoints.count(
        static_cast<int64_t>(isa::Syscall::Mprotect)));
    EXPECT_TRUE(endpoints.count(
        static_cast<int64_t>(isa::Syscall::Sigreturn)));
    EXPECT_TRUE(endpoints.count(
        static_cast<int64_t>(isa::Syscall::Write)));
    EXPECT_FALSE(endpoints.count(
        static_cast<int64_t>(isa::Syscall::Read)));
}

} // namespace

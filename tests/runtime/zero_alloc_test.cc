/**
 * @file
 * The fast path's pass path allocates nothing.
 *
 * This binary replaces the global operator new/delete with counting
 * wrappers over malloc/free (so it also runs under ASan), drives a
 * trained, warmed server through its endpoints with a Monitor that
 * checks the live ToPA view at each one, and counts the heap
 * allocations made inside each Monitor::check.
 *
 * The checker's scratch grows to the largest window it has decoded,
 * and windows keep growing while the ring first fills. A first pass
 * of the load sizes the scratch; a second pass of the same load, whose
 * windows are the same sizes, must then allocate nothing on any
 * check. The one allocation a check may still make is the verdict
 * log's amortized growth (one byte per check, capacity doubling),
 * which is told apart by watching the log's capacity.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "core/flowguard.hh"
#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "runtime/monitor.hh"
#include "trace/ipt.hh"
#include "workloads/apps.hh"

namespace {

std::atomic<uint64_t> heap_allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    heap_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *block = std::malloc(size ? size : 1))
        return block;
    throw std::bad_alloc();
}

void
operator delete(void *block) noexcept
{
    std::free(block);
}

void
operator delete(void *block, std::size_t) noexcept
{
    std::free(block);
}

namespace {

using namespace flowguard;

struct EndpointCheck
{
    runtime::CheckVerdict verdict = runtime::CheckVerdict::Pass;
    uint64_t allocations = 0;
    /** The verdict log reallocated during this check. */
    bool logGrew = false;
    /** The ring had wrapped: the view spanned its mirror. */
    bool wrapped = false;
};

/** Checks the live ToPA view at every endpoint syscall, counting the
 *  heap allocations Monitor::check makes. */
class CountingKernel : public cpu::BasicKernel
{
  public:
    CountingKernel(runtime::Monitor &monitor, trace::IptEncoder &encoder,
                   const trace::Topa &topa)
        : _monitor(monitor), _encoder(encoder), _topa(topa),
          _endpoints(runtime::FlowGuardKernel::defaultEndpoints())
    {}

    cpu::SyscallResult
    onSyscall(cpu::Cpu &cpu, int64_t number) override
    {
        if (_endpoints.count(number)) {
            _encoder.flushTnt();
            EndpointCheck check;
            check.wrapped = _topa.wrapped();
            const size_t log_capacity =
                _monitor.verdictLog().capacity();
            const uint64_t before = heap_allocations.load();
            check.verdict = _monitor.check(_topa.view());
            check.allocations = heap_allocations.load() - before;
            check.logGrew =
                _monitor.verdictLog().capacity() != log_capacity;
            checks.push_back(check);
        }
        return BasicKernel::onSyscall(cpu, number);
    }

    std::vector<EndpointCheck> checks;

  private:
    runtime::Monitor &_monitor;
    trace::IptEncoder &_encoder;
    const trace::Topa &_topa;
    std::set<int64_t> _endpoints;
};

TEST(ZeroAllocation, PassingChecksOnLiveViewsAllocateNothing)
{
    // The endpoint-dense server perfbench's `storm` workload runs.
    workloads::ServerSpec spec;
    spec.name = "storm";
    spec.workPerRequest = 1;
    spec.implantVuln = true;
    spec.seed = 21;
    spec.cr3 = 0x2100;
    const auto app = workloads::buildServerApp(spec);
    const auto stream = [&](size_t requests, uint64_t seed) {
        return workloads::makeBenignStream(requests, seed,
                                           spec.numHandlers,
                                           spec.numParserStates);
    };

    FlowGuardConfig config;
    config.telemetryOff = true;
    FlowGuard guard(app.program, config);
    guard.analyze();
    std::vector<fuzz::Input> corpus;
    for (uint64_t i = 0; i < 20; ++i)
        corpus.push_back(stream(10, 100 + i));
    guard.trainWithCorpus(corpus);
    // Warm the graph as a long-running module would: one pass of the
    // load caches its slow-path verdicts.
    const auto load = stream(400, 1);
    guard.run(load);

    runtime::MonitorConfig monitor_config;
    monitor_config.fastPath = config.fastPath;
    cpu::CycleAccount cycles;
    runtime::Monitor monitor(app.program, guard.itc(), guard.ocfg(),
                             guard.typearmor(), monitor_config,
                             &cycles);

    const auto run_load = [&] {
        cpu::Cpu cpu(app.program);
        trace::Topa topa(config.topaRegions);
        trace::IptConfig ipt_config;
        ipt_config.cr3Filter = true;
        ipt_config.cr3Match = app.program.cr3();
        ipt_config.psbPeriodBytes = config.psbPeriodBytes;
        trace::IptEncoder encoder(ipt_config, topa, &cycles);
        cpu.addTraceSink(&encoder);
        CountingKernel kernel(monitor, encoder, topa);
        kernel.setInput(load);
        cpu.setSyscallHandler(&kernel);
        EXPECT_EQ(cpu.run(50'000'000), cpu::Cpu::Stop::Halted);
        return kernel.checks;
    };

    const auto sizing = run_load();
    ASSERT_FALSE(sizing.empty());
    const auto measured = run_load();
    ASSERT_EQ(measured.size(), sizing.size());

    size_t on_wrapped_ring = 0;
    size_t log_growths = 0;
    for (size_t i = 0; i < measured.size(); ++i) {
        SCOPED_TRACE("check " + std::to_string(i));
        const EndpointCheck &check = measured[i];
        ASSERT_EQ(check.verdict, runtime::CheckVerdict::Pass);
        EXPECT_EQ(check.allocations, check.logGrew ? 1u : 0u);
        on_wrapped_ring += check.wrapped ? 1 : 0;
        log_growths += check.logGrew ? 1 : 0;
    }
    // Every check resolved on the fast path, most of them on a ring
    // that had wrapped, so their view spanned the mirror.
    EXPECT_EQ(monitor.stats().escalations, 0u);
    EXPECT_EQ(monitor.stats().fastPass, 2 * measured.size());
    EXPECT_GE(measured.size(), 300u);
    EXPECT_GE(on_wrapped_ring, measured.size() / 2);
    EXPECT_LE(log_growths, 1u);
}

} // namespace

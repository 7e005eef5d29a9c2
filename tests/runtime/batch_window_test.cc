/**
 * @file
 * How many TIPs each trigger examines. An endpoint's fast phase takes
 * in at least pkt_count TIPs (§7.1.1), widened to pkt_count × batch
 * while the scheduler is under backpressure; drain()'s final check
 * goes back to the configured pkt_count; a code barrier and a PMI
 * window take in every TIP in the ring (§5.2).
 *
 * What a check examined is read from MonitorStats::tipsChecked
 * deltas. What the ring holds comes from an independent whole-buffer
 * decode, and what a window of a given width holds from a standalone
 * FastPathChecker over the same bytes. The guard is untrained, so
 * every benign window is Suspicious (never a Violation that would
 * stop the walk early) and every endpoint escalates: with a deadline
 * no slow check can meet, the queue backs up and the batch factor
 * rises.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/flowguard.hh"
#include "decode/fast_decoder.hh"
#include "isa/syscalls.hh"
#include "runtime/service.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::runtime;

workloads::ServerSpec
serverSpec()
{
    workloads::ServerSpec spec;
    spec.name = "batch";
    spec.numHandlers = 4;
    spec.numParserStates = 2;
    spec.numFillerFuncs = 16;
    spec.fillerTableSlots = 6;
    spec.workPerRequest = 20;
    spec.seed = 7;
    spec.cr3 = 0xD000;
    return spec;
}

std::vector<uint8_t>
benign(size_t requests, uint64_t seed)
{
    return workloads::makeBenignStream(requests, seed, 4, 2);
}

/** Every TIP transition in `packets`, from a whole-buffer decode. */
size_t
ringTips(std::span<const uint8_t> packets)
{
    decode::TraceCursor cursor;
    cursor.decode(trace::StreamView{packets}, SIZE_MAX);
    return cursor.views().size();
}

/** The TIPs a fast check `pkt_count` wide examines over `packets`. */
size_t
windowTips(const FlowGuard &guard, const isa::Program &program,
           std::span<const uint8_t> packets, size_t pkt_count)
{
    FastPathConfig config = guard.config().fastPath;
    config.pktCount = pkt_count;
    const FastPathChecker checker(guard.itc(), program, config);
    return checker.check(packets).tipsChecked;
}

/** One endpoint the service checked, as seen around the kernel. */
struct EndpointWindow
{
    size_t batch = 0;       ///< batch factor, unchanged across the call
    size_t ringTips = 0;    ///< TIPs in the ring at the endpoint
    size_t baseTips = 0;    ///< what a pkt_count window examines
    uint64_t checked = 0;   ///< MonitorStats::tipsChecked delta
};

/**
 * Forwards every syscall to the kernel and records each endpoint the
 * service checked at a known batch factor: one that neither pump()
 * nor submit() moved, so the check ran at that factor.
 */
class EndpointProbe : public cpu::SyscallHandler
{
  public:
    EndpointProbe(FlowGuardKernel &kernel, ProtectionService &service,
                  FlowGuard::ProcessHarness &proc,
                  const FlowGuard &guard, const isa::Program &program)
        : _kernel(kernel), _service(service), _proc(proc),
          _guard(guard), _program(program)
    {}

    cpu::SyscallResult
    onSyscall(cpu::Cpu &cpu, int64_t number) override
    {
        if (!_guard.config().endpoints.count(number))
            return _kernel.onSyscall(cpu, number);
        // The service flushes the same outcomes before it checks.
        _proc.encoder->flushTnt();
        EndpointWindow window;
        window.batch = _service.scheduler().batchFactor();
        window.ringTips = ringTips(_proc.topa->view());
        window.baseTips = windowTips(_guard, _program,
                                     _proc.topa->view(),
                                     _guard.config().fastPath.pktCount);
        const ServiceStats before_service = _service.stats();
        const uint64_t raises = _service.schedulerStats().batchRaises;
        const uint64_t before = _proc.monitor->stats().tipsChecked;
        const cpu::SyscallResult result = _kernel.onSyscall(cpu, number);
        window.checked = _proc.monitor->stats().tipsChecked - before;
        const bool checked =
            _service.stats().endpointChecks ==
                before_service.endpointChecks + 1 &&
            _service.stats().coalesced == before_service.coalesced;
        const bool steady =
            _service.schedulerStats().batchRaises == raises &&
            _service.scheduler().batchFactor() == window.batch;
        if (checked && steady)
            windows.push_back(window);
        return result;
    }

    std::vector<EndpointWindow> windows;

  private:
    FlowGuardKernel &_kernel;
    ProtectionService &_service;
    FlowGuard::ProcessHarness &_proc;
    const FlowGuard &_guard;
    const isa::Program &_program;
};

TEST(BatchWindow, EndpointWidensUnderBackpressureAndDrainDoesNot)
{
    const auto spec = serverSpec();
    const auto app = workloads::buildServerApp(spec);
    FlowGuard guard(app.program);
    guard.analyze();
    const size_t pkt_count = guard.config().fastPath.pktCount;

    ServiceConfig config;
    config.scheduler.deadlineCycles = 1;
    ProtectionService service(config);
    auto proc = guard.makeProcessHarness(app.program);
    FlowGuardKernel::Config kconfig;
    kconfig.endpoints = guard.config().endpoints;
    FlowGuardKernel kernel(kconfig);
    kernel.attachService(service);
    kernel.setInput(benign(40, 3));
    EndpointProbe probe(kernel, service, *proc, guard, app.program);
    proc->cpu->setSyscallHandler(&probe);
    service.addProcess(app.program.cr3(), *proc->monitor,
                       *proc->encoder, *proc->topa, *proc->cpu,
                       &proc->cycles);
    ASSERT_EQ(service.attachAll().attached, 1u);
    proc->cpu->run(50'000'000);

    size_t widened = 0;
    for (const EndpointWindow &window : probe.windows) {
        const size_t quota = pkt_count * window.batch;
        EXPECT_GE(window.checked, std::min(quota, window.ringTips))
            << "batch " << window.batch;
        // The windows where the widening shows: a pkt_count-wide
        // check would have stopped short of the quota.
        if (window.batch > 1 && window.baseTips < quota &&
            quota <= window.ringTips)
            ++widened;
    }
    EXPECT_GE(widened, 3u);

    // drain(): one final check per process at the configured width,
    // whatever the batch factor the run ended on.
    proc->encoder->flushTnt();
    const size_t batch = service.scheduler().batchFactor();
    const size_t expected = windowTips(guard, app.program,
                                       proc->topa->view(), pkt_count);
    const size_t wide = windowTips(guard, app.program,
                                   proc->topa->view(),
                                   pkt_count * batch);
    const uint64_t before = proc->monitor->stats().tipsChecked;
    service.drain();
    EXPECT_EQ(proc->monitor->stats().tipsChecked - before, expected);
    EXPECT_GT(batch, 1u);
    EXPECT_GT(wide, expected);
}

TEST(BatchWindow, BarrierAndPmiWindowsExamineTheWholeRing)
{
    const auto spec = serverSpec();
    const auto app = workloads::buildServerApp(spec);
    FlowGuard guard(app.program);
    guard.analyze();
    const size_t pkt_count = guard.config().fastPath.pktCount;

    // No endpoints: the ring fills and wraps, unchecked.
    ProtectionService service;
    auto proc = guard.makeProcessHarness(app.program);
    FlowGuardKernel::Config kconfig;
    kconfig.endpoints.clear();
    FlowGuardKernel kernel(kconfig);
    kernel.attachService(service);
    kernel.setInput(benign(150, 5));
    proc->cpu->setSyscallHandler(&kernel);
    service.addProcess(app.program.cr3(), *proc->monitor,
                       *proc->encoder, *proc->topa, *proc->cpu,
                       &proc->cycles);
    ASSERT_EQ(service.attachAll().attached, 1u);
    proc->cpu->run(50'000'000);
    ASSERT_EQ(proc->monitor->stats().checks, 0u);

    proc->encoder->flushTnt();
    const std::vector<uint8_t> ring = proc->topa->snapshot();
    ASSERT_GT(proc->topa->totalWritten(), ring.size());
    const size_t tips = ringTips(ring);
    // Wider than any endpoint window the default batch cap allows.
    ASSERT_GT(tips, pkt_count * max_batch_factor);

    // The code barrier judges everything in the ring.
    const uint64_t before = proc->monitor->stats().tipsChecked;
    service.codeBarrier(*proc->cpu,
                        static_cast<int64_t>(isa::Syscall::DlClose));
    EXPECT_EQ(service.stats().barrierChecks, 1u);
    EXPECT_EQ(proc->monitor->stats().tipsChecked - before, tips);

    // A PMI on a ToPA that fills on the ring's last byte judges all of
    // it too.
    auto replay = guard.makeProcessHarness(app.program);
    trace::Topa topa({ring.size()});
    ProtectionService pmi_service;
    pmi_service.addProcess(app.program.cr3(), *replay->monitor,
                           *replay->encoder, topa);
    ASSERT_EQ(pmi_service.attachAll().attached, 1u);
    pmi_service.armPmi(app.program.cr3());
    topa.write(ring.data(), ring.size());
    EXPECT_EQ(pmi_service.stats().pmiChecks, 1u);
    EXPECT_EQ(replay->monitor->stats().tipsChecked, tips);
}

} // namespace

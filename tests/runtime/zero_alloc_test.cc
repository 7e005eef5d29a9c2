/**
 * @file
 * The fast path's pass path allocates nothing.
 *
 * This binary replaces the global operator new/delete with counting
 * wrappers over malloc/free (so it also runs under ASan), drives a
 * trained, warmed server through its endpoints with the synchronous
 * ProtectionService the kernel's inline mode builds (it checks the
 * live ToPA view at each one), and counts the heap allocations made
 * inside each ProtectionService::onEndpoint — the path every endpoint
 * check takes.
 *
 * The checker's scratch grows to the largest window it has decoded,
 * and windows keep growing while the ring first fills. A first pass
 * of the load sizes the scratch; a second pass of the same load, whose
 * windows are the same sizes, must then allocate nothing on any
 * check. The one allocation a check may still make is the verdict
 * log's amortized growth (one byte per check, capacity doubling),
 * which is told apart by watching the log's capacity. The same pass
 * counts what the fast path's decode cursor saves: a check parses no
 * more than the trace written since the previous one, plus one packet
 * that check's view may have cut, and now and then the newest PSB
 * segment once more, except the one check that must cold-start an
 * anchored decode.
 *
 * A second test drives the same service with every check forced onto
 * the slow path: once the slow path's scratch (its decode cursor, the
 * kept walk's branches and marks, the shadow stack) and the staged
 * views have grown, and the overlay holds every pair the load stages,
 * an escalation that passes allocates nothing, from the window decode
 * through the walk, staging and the commit, and the synchronous
 * service copies no window. Its decode, read from the telemetry spans,
 * parses no more than the trace written since the previous slow check
 * plus one PSB segment, except the one check that must cold-start.
 *
 * A third test counts the allocations of a verdict-cache commit whose
 * staged pairs and n-grams the runtime overlay already holds: none.
 *
 * A fourth test counts the allocations of the IPT encoder itself over
 * a warm ring: none.
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
#include "runtime/service.hh"
#include "telemetry/telemetry.hh"
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
    bool kill = false;
    uint64_t allocations = 0;
    /** The verdict log reallocated during this check. */
    bool logGrew = false;
    /** The ring had wrapped: the view spanned its mirror. */
    bool wrapped = false;
    /** Modeled decode cycles the check was charged. */
    double decodeCycles = 0.0;
    /** Trace bytes written since the previous check. */
    uint64_t written = 0;
    /** Trace bytes the slow path's window decode read. */
    uint64_t slowParsed = 0;
};

/** Counts the bytes each slow check's window decode reads: the
 *  FastDecode span closed last before a SlowCheck span is its own. */
struct SlowDecodeSink : telemetry::TelemetrySink
{
    uint64_t lastDecode = 0;
    uint64_t parsed = 0;

    void
    onEvent(const telemetry::FlightEvent &event) override
    {
        if (event.kind != telemetry::EventKind::Span)
            return;
        if (event.span == telemetry::SpanKind::FastDecode)
            lastDecode = event.b;
        else if (event.span == telemetry::SpanKind::SlowCheck)
            parsed += lastDecode;
    }
};

/** Runs the service's endpoint check at every endpoint syscall,
 *  counting the heap allocations ProtectionService::onEndpoint
 *  makes. */
class CountingKernel : public cpu::BasicKernel
{
  public:
    CountingKernel(runtime::ProtectionService &service,
                   const runtime::Monitor &monitor,
                   const trace::Topa &topa,
                   const cpu::CycleAccount &account)
        : _service(service), _monitor(monitor), _topa(topa),
          _account(account),
          _endpoints(runtime::FlowGuardKernel::defaultEndpoints())
    {}

    cpu::SyscallResult
    onSyscall(cpu::Cpu &cpu, int64_t number) override
    {
        if (_endpoints.count(number)) {
            if (escalate)
                escalate->forceSlowNext();
            EndpointCheck check;
            check.wrapped = _topa.wrapped();
            const size_t log_capacity =
                _monitor.verdictLog().capacity();
            const double decode_before = _account.decode;
            const uint64_t parsed_before = slowSink ? slowSink->parsed : 0;
            const uint64_t before = heap_allocations.load();
            check.kill = _service.onEndpoint(cpu, number).kill;
            check.allocations = heap_allocations.load() - before;
            check.slowParsed =
                (slowSink ? slowSink->parsed : 0) - parsed_before;
            check.decodeCycles = _account.decode - decode_before;
            check.written = _topa.totalWritten() - _writtenBefore;
            _writtenBefore = _topa.totalWritten();
            check.logGrew =
                _monitor.verdictLog().capacity() != log_capacity;
            checks.push_back(check);
        }
        return BasicKernel::onSyscall(cpu, number);
    }

    std::vector<EndpointCheck> checks;
    /** When set, every check is forced onto this monitor's slow path. */
    runtime::Monitor *escalate = nullptr;
    /** When set, what each check's slow path decode read. */
    const SlowDecodeSink *slowSink = nullptr;

  private:
    runtime::ProtectionService &_service;
    const runtime::Monitor &_monitor;
    const trace::Topa &_topa;
    const cpu::CycleAccount &_account;
    uint64_t _writtenBefore = 0;
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
        // The configuration FlowGuardKernel::attachProcess builds.
        runtime::ServiceConfig service_config;
        service_config.scheduler.deadlineCycles = UINT64_MAX;
        runtime::ProtectionService service(service_config);
        service.addProcess(app.program.cr3(), monitor, encoder, topa,
                           cpu, &cycles);
        EXPECT_EQ(service.attachAll().attached, 1u);
        CountingKernel kernel(service, monitor, topa, cycles);
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
    size_t cold_starts = 0;
    size_t counted_segments = 0;
    double decode_cycles = 0.0;
    for (size_t i = 0; i < measured.size(); ++i) {
        SCOPED_TRACE("check " + std::to_string(i));
        const EndpointCheck &check = measured[i];
        ASSERT_FALSE(check.kill);
        EXPECT_EQ(check.allocations, check.logGrew ? 1u : 0u);
        on_wrapped_ring += check.wrapped ? 1 : 0;
        log_growths += check.logGrew ? 1 : 0;
        // What is new since the previous check, and at most one packet
        // whose tail that check's view had not yet held. A check whose
        // new bytes hold a PSB in their newer half also counts that
        // PSB's segment once, to rule out a window lying wholly among
        // them; anything beyond is a cold start.
        const auto cycles_for = [](double bytes) {
            return bytes * cpu::cost::sw_packet_decode_per_byte;
        };
        const double written = static_cast<double>(check.written);
        const double packet = trace::detail::psb_len;
        if (check.decodeCycles > cycles_for(written + packet))
            ++counted_segments;
        if (check.decodeCycles > cycles_for(1.5 * written + packet))
            ++cold_starts;
        decode_cycles += check.decodeCycles;
    }
    // Only the first check on the new ring cold-starts: its stream is
    // not the one the cursor decoded in the sizing pass. A PSB every
    // KiB, ~150 bytes of trace per check: a segment is counted on
    // about one check in eight.
    EXPECT_LE(cold_starts, 1u);
    EXPECT_LE(counted_segments, measured.size() / 4);
    EXPECT_GT(decode_cycles, 0.0);
    // Every check resolved on the fast path, most of them on a ring
    // that had wrapped, so their view spanned the mirror.
    EXPECT_EQ(monitor.stats().escalations, 0u);
    EXPECT_EQ(monitor.stats().fastPass, 2 * measured.size());
    EXPECT_GE(measured.size(), 300u);
    EXPECT_GE(on_wrapped_ring, measured.size() / 2);
    EXPECT_LE(log_growths, 1u);
}

TEST(ZeroAllocation, PassingSlowCheckAllocatesNothing)
{
    workloads::ServerSpec spec;
    spec.name = "slow";
    spec.seed = 22;
    spec.cr3 = 0x2200;
    const auto app = workloads::buildServerApp(spec);

    FlowGuardConfig config;
    config.telemetryOff = true;
    FlowGuard guard(app.program, config);
    guard.analyze();
    guard.trainWithCorpus({workloads::makeBenignStream(
        4, 3, spec.numHandlers, spec.numParserStates)});

    runtime::MonitorConfig monitor_config;
    monitor_config.fastPath = config.fastPath;
    cpu::CycleAccount cycles;
    runtime::Monitor monitor(app.program, guard.itc(), guard.ocfg(),
                             guard.typearmor(), monitor_config,
                             &cycles);
    // Spans only to count what each slow check's decode reads.
    SlowDecodeSink sink;
    telemetry::Telemetry telemetry;
    telemetry.setSink(&sink);
    monitor.setTelemetry(&telemetry, app.program.cr3());
    const auto load = workloads::makeBenignStream(
        40, 11, spec.numHandlers, spec.numParserStates);

    const auto run_load = [&] {
        cpu::Cpu cpu(app.program);
        trace::Topa topa(config.topaRegions);
        trace::IptConfig ipt_config;
        ipt_config.cr3Filter = true;
        ipt_config.cr3Match = app.program.cr3();
        ipt_config.psbPeriodBytes = config.psbPeriodBytes;
        trace::IptEncoder encoder(ipt_config, topa, &cycles);
        cpu.addTraceSink(&encoder);
        // The configuration FlowGuardKernel::attachProcess builds.
        runtime::ServiceConfig service_config;
        service_config.scheduler.deadlineCycles = UINT64_MAX;
        runtime::ProtectionService service(service_config);
        service.addProcess(app.program.cr3(), monitor, encoder, topa,
                           cpu, &cycles);
        EXPECT_EQ(service.attachAll().attached, 1u);
        CountingKernel kernel(service, monitor, topa, cycles);
        kernel.escalate = &monitor;
        kernel.slowSink = &sink;
        kernel.setInput(load);
        cpu.setSyscallHandler(&kernel);
        EXPECT_EQ(cpu.run(50'000'000), cpu::Cpu::Stop::Halted);
        return kernel.checks;
    };

    // The first pass sizes the scratch and learns the load's pairs.
    const auto sizing = run_load();
    ASSERT_FALSE(sizing.empty());
    const uint64_t slow_before = monitor.stats().slowPass;
    const auto measured = run_load();
    ASSERT_EQ(measured.size(), sizing.size());

    size_t log_growths = 0;
    size_t cold_starts = 0;
    size_t counted_segments = 0;
    uint64_t parsed = 0;
    for (size_t i = 0; i < measured.size(); ++i) {
        SCOPED_TRACE("check " + std::to_string(i));
        const EndpointCheck &check = measured[i];
        ASSERT_FALSE(check.kill);
        EXPECT_EQ(check.allocations, check.logGrew ? 1u : 0u);
        log_growths += check.logGrew ? 1 : 0;
        // The slow path's window decode reads what is new since the
        // previous slow check, at most one PSB segment more (to rule out
        // a window lying wholly among the new bytes); anything beyond
        // is a cold start.
        if (check.slowParsed > check.written + trace::detail::psb_len)
            ++counted_segments;
        if (check.slowParsed > check.written + config.psbPeriodBytes)
            ++cold_starts;
        parsed += check.slowParsed;
    }
    // Only the first check on the new ring cold-starts.
    EXPECT_LE(cold_starts, 1u);
    EXPECT_LE(counted_segments, measured.size() / 4);
    EXPECT_GT(parsed, 0u);
    // Every measured check escalated, passed the slow path and walked
    // real flow; most of them on a wrapped ring.
    EXPECT_EQ(monitor.stats().slowPass - slow_before, measured.size());
    EXPECT_EQ(monitor.stats().slowViolations, 0u);
    EXPECT_GT(monitor.lastSlow().instructionsWalked, 1000u);
    EXPECT_GE(measured.size(), 40u);
    EXPECT_LE(log_growths, 1u);
}

TEST(ZeroAllocation, CommittingHeldPairsAllocatesNothing)
{
    workloads::ServerSpec spec;
    spec.name = "commit";
    spec.seed = 23;
    spec.cr3 = 0x2300;
    const auto app = workloads::buildServerApp(spec);

    FlowGuardConfig config;
    config.telemetryOff = true;
    config.pathSensitive = true;
    FlowGuard guard(app.program, config);
    guard.analyze();
    guard.trainWithCorpus({workloads::makeBenignStream(
        4, 3, spec.numHandlers, spec.numParserStates)});

    // A window the size of the ring, from a different request mix.
    cpu::Cpu cpu(app.program);
    trace::Topa topa(config.topaRegions);
    trace::IptConfig ipt_config;
    ipt_config.cr3Filter = true;
    ipt_config.cr3Match = app.program.cr3();
    cpu::CycleAccount cycles;
    trace::IptEncoder encoder(ipt_config, topa, &cycles);
    cpu.addTraceSink(&encoder);
    cpu::BasicKernel kernel;
    kernel.setInput(workloads::makeBenignStream(
        12, 9, spec.numHandlers, spec.numParserStates));
    cpu.setSyscallHandler(&kernel);
    cpu.run(50'000'000);
    const auto view = topa.view();
    const std::vector<uint8_t> window(view.begin(), view.end());

    runtime::MonitorConfig monitor_config;
    monitor_config.fastPath = config.fastPath;
    monitor_config.autoCommitCache = false;
    runtime::Monitor monitor(app.program, guard.itc(), guard.ocfg(),
                             guard.typearmor(), monitor_config, &cycles,
                             guard.mutablePaths());
    uint64_t deltas = 0;
    monitor.setCommitObserver(
        [&deltas](const runtime::Monitor::CreditDelta &) { ++deltas; });

    // The first commit learns the window; the second holds nothing new.
    for (int commit = 0; commit < 2; ++commit) {
        SCOPED_TRACE("commit " + std::to_string(commit));
        ASSERT_EQ(monitor.slowPhase(window, /*loss=*/false),
                  runtime::CheckVerdict::Pass);
        ASSERT_TRUE(monitor.cachePending());
        ASSERT_GT(monitor.staged().size(), 100u);
        const uint64_t before = heap_allocations.load();
        monitor.commitCache();
        const uint64_t allocations = heap_allocations.load() - before;
        if (commit == 0) {
            EXPECT_GT(allocations, 0u);    // the delta was collected
        } else {
            EXPECT_EQ(allocations, 0u);
        }
    }
    // Only the first commit had a delta to hand the observer.
    EXPECT_EQ(deltas, 1u);
}

/** Records a run's branch stream. */
class BranchLog : public cpu::TraceSink
{
  public:
    void onBranch(const cpu::BranchEvent &event) override
    {
        events.push_back(event);
    }

    std::vector<cpu::BranchEvent> events;
};

TEST(ZeroAllocation, EncoderWritesPacketsWithoutAllocating)
{
    // The encoder builds each packet on the stack and writes it to the
    // ToPA in one call. After a warm-up pass, in which the ring wraps
    // and grows its mirror once, encoding allocates nothing: with the
    // PMI serviced at the wrap and with service latency (packets
    // dropped whole, then OVF + PSB resync).
    const auto spec = workloads::serverSuite()[0];
    const auto app = workloads::buildServerApp(spec);
    BranchLog log;
    workloads::runOnce(app.program,
                       workloads::makeBenignStream(
                           3, 7, spec.numHandlers, spec.numParserStates),
                       &log);
    ASSERT_GT(log.events.size(), 10'000u);

    for (size_t latency : {size_t{0}, size_t{300}}) {
        SCOPED_TRACE("PMI latency " + std::to_string(latency));
        trace::Topa topa({2048, 2048});
        topa.setPmiServiceLatency(latency);
        uint64_t pmis = 0;
        topa.setPmiCallback([&pmis] { ++pmis; });
        trace::IptConfig ipt_config;
        ipt_config.cr3Filter = true;
        ipt_config.cr3Match = app.program.cr3();
        cpu::CycleAccount cycles;
        trace::IptEncoder encoder(ipt_config, topa, &cycles);

        for (const auto &event : log.events)
            encoder.onBranch(event);
        ASSERT_TRUE(topa.wrapped());
        const uint64_t bytes_before = encoder.stats().bytes;
        const uint64_t pmis_before = pmis;
        const uint64_t before = heap_allocations.load();
        for (const auto &event : log.events)
            encoder.onBranch(event);
        EXPECT_EQ(heap_allocations.load() - before, 0u);
        // The measured pass really wrote packets and wrapped the ring.
        EXPECT_GT(encoder.stats().bytes - bytes_before, 4096u);
        EXPECT_GT(pmis - pmis_before, 0u);
        if (latency > 0) {
            EXPECT_GT(encoder.stats().ovfPackets, 0u);
        }
    }
}

} // namespace

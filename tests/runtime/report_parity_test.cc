/**
 * @file
 * One verdict, one report. The same conviction reaches the
 * administrator through three triggers: the inline kernel
 * (FlowGuard::run, the kernel's own synchronous service), a caller's
 * protection service (fast phase at the endpoint, slow phase through
 * the scheduler) and a PMI window (ProtectionService::armPmi). Each
 * must file the same kind, offending edge and reason; a PMI report
 * differs only by its "PMI window: " prefix.
 *
 * Every scenario checks whole buffers (pkt_count unbounded, no
 * module-stride rule) with verdict caching off, so the endpoint check
 * and the PMI's full-buffer check judge a window identically and no
 * earlier check changes a later verdict. The PMI path replays the
 * window the service convicted into a ToPA that fills on its last
 * byte.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "core/flowguard.hh"
#include "isa/syscalls.hh"
#include "runtime/service.hh"
#include "workloads/apps.hh"
#include "stale_rop.hh"

namespace {

using namespace flowguard;
using namespace flowguard::runtime;

const std::string pmi_prefix = "PMI window: ";

workloads::ServerSpec
vulnSpec()
{
    return workloads::serverSuite(/*implant_vuln=*/true)[0];
}

workloads::PluginServerSpec
pluginSpec()
{
    workloads::PluginServerSpec spec;
    spec.numPlugins = 2;
    spec.handlersPerPlugin = 2;
    spec.workPerCall = 8;
    spec.numFillerFuncs = 12;
    spec.implantVuln = true;
    spec.seed = 9;
    spec.cr3 = 0x6000;
    return spec;
}

/** Whole-buffer, cache-free checking (see the file comment). */
FlowGuardConfig
wholeBuffer(FlowGuardConfig config = {})
{
    config.fastPath.pktCount = SIZE_MAX;
    config.fastPath.requireModuleStride = false;
    config.cacheSlowPathVerdicts = false;
    return config;
}

/** The report of the only kill FlowGuard::run delivers. */
ViolationReport
inlineReport(FlowGuard &guard, const std::vector<uint8_t> &input)
{
    auto outcome = guard.run(input);
    EXPECT_EQ(outcome.stop, cpu::Cpu::Stop::Killed);
    EXPECT_EQ(outcome.violations.size(), 1u);
    return outcome.violations.empty() ? ViolationReport{}
                                      : outcome.violations.front();
}

struct ServiceKill
{
    ViolationReport report;
    /** The window the service judged when it convicted. */
    std::vector<uint8_t> window;
};

/** Runs `input` under a ProtectionService that never defers. */
ServiceKill
serviceKill(FlowGuard &guard, const isa::Program &program,
            const std::vector<uint8_t> &input)
{
    ServiceConfig config;
    // Unbounded deadline: an escalation resolves at its endpoint, so
    // the kill lands at the same syscall as the inline kill.
    config.scheduler.deadlineCycles = UINT64_MAX / 4;
    ProtectionService service(config);
    auto proc = guard.makeProcessHarness(program);
    FlowGuardKernel::Config kconfig;
    kconfig.endpoints = guard.config().endpoints;
    FlowGuardKernel kernel(kconfig);
    kernel.attachService(service);
    kernel.setInput(input);
    if (proc->dyn)
        kernel.addCodeEventSink(proc->dyn.get());
    proc->cpu->setSyscallHandler(&kernel);
    service.addProcess(program.cr3(), *proc->monitor, *proc->encoder,
                       *proc->topa, *proc->cpu, &proc->cycles);
    EXPECT_EQ(service.attachAll().attached, 1u);
    EXPECT_EQ(proc->cpu->run(50'000'000), cpu::Cpu::Stop::Killed);
    EXPECT_EQ(kernel.violations().size(), 1u);
    EXPECT_EQ(service.schedulerStats().deferred, 0u);

    ServiceKill kill;
    if (!kernel.violations().empty())
        kill.report = kernel.violations().front();
    kill.window = proc->topa->snapshot();
    service.drain();
    return kill;
}

/** Replays `window` through a fresh monitor's PMI, armed on a
 *  service. */
ViolationReport
pmiReport(FlowGuard &guard, const isa::Program &program,
          const std::vector<uint8_t> &window)
{
    auto proc = guard.makeProcessHarness(program);
    trace::Topa topa({window.size()});
    ProtectionService service;
    service.addProcess(program.cr3(), *proc->monitor, *proc->encoder,
                       topa);
    EXPECT_EQ(service.attachAll().attached, 1u);
    service.armPmi(program.cr3());
    topa.write(window.data(), window.size());
    EXPECT_EQ(service.stats().pmiChecks, 1u);
    ViolationReport report;
    EXPECT_TRUE(service.consumePendingKill(program.cr3(), report));
    ViolationReport none;
    EXPECT_FALSE(service.consumePendingKill(program.cr3(), none));
    return report;
}

/**
 * Convicts `input` inline, through the service and through a PMI
 * window; asserts the three reports agree and returns the inline
 * one.
 */
ViolationReport
expectParity(FlowGuard &guard, const isa::Program &program,
             const std::vector<uint8_t> &input)
{
    const ViolationReport inline_kill = inlineReport(guard, input);
    const ServiceKill service = serviceKill(guard, program, input);
    const ViolationReport pmi =
        pmiReport(guard, program, service.window);

    EXPECT_EQ(inline_kill.cr3, program.cr3());
    for (const ViolationReport *report : {&service.report, &pmi}) {
        const char *mode = report == &pmi ? "pmi" : "service";
        EXPECT_EQ(report->kind, inline_kill.kind) << mode;
        EXPECT_EQ(report->cr3, inline_kill.cr3) << mode;
        EXPECT_EQ(report->from, inline_kill.from) << mode;
        EXPECT_EQ(report->to, inline_kill.to) << mode;
    }
    EXPECT_EQ(service.report.reason, inline_kill.reason);
    EXPECT_EQ(pmi.reason, pmi_prefix + inline_kill.reason);
    // The service convicted at the same endpoint; a PMI window is
    // numbered by PMI and has no syscall.
    EXPECT_EQ(service.report.seq, inline_kill.seq);
    EXPECT_EQ(service.report.syscall, inline_kill.syscall);
    EXPECT_EQ(pmi.seq, 1u);
    EXPECT_EQ(pmi.syscall, -1);
    return inline_kill;
}

FlowGuard
trainedServerGuard(const workloads::SyntheticApp &app,
                   const workloads::ServerSpec &spec,
                   FlowGuardConfig config)
{
    FlowGuard guard(app.program, config);
    guard.analyze();
    std::vector<fuzz::Input> corpus;
    for (uint64_t seed = 1; seed <= 4; ++seed)
        corpus.push_back(workloads::makeBenignStream(
            8, seed, spec.numHandlers, spec.numParserStates));
    guard.trainWithCorpus(corpus);
    return guard;
}

TEST(ReportParity, FastPathRopChain)
{
    const auto spec = vulnSpec();
    const auto app = workloads::buildServerApp(spec);
    FlowGuard guard = trainedServerGuard(app, spec, wholeBuffer());
    const auto attack = attacks::buildRopWriteAttack(
        app.program, attacks::scanGadgets(app.program));

    const auto report = expectParity(guard, app.program, attack.request);
    EXPECT_EQ(report.kind, ViolationReport::Kind::CfiViolation);
    EXPECT_EQ(report.reason, "fast path: ITC-CFG edge mismatch");
    EXPECT_NE(report.to, 0u);
}

TEST(ReportParity, StaleRangeRopChain)
{
    const auto app = workloads::buildPluginServerApp(pluginSpec());
    const auto catalog = attacks::scanGadgets(app.program);
    FlowGuardConfig config = wholeBuffer();
    config.dynamicModules = app.dynamicModules;
    FlowGuard guard(app.program, config);
    guard.analyze();
    std::vector<fuzz::Input> corpus;
    for (uint64_t seed = 1; seed <= 4; ++seed)
        corpus.push_back(
            workloads::makePluginStream(10, seed, pluginSpec()));
    guard.trainWithCorpus(corpus);

    const auto report = expectParity(
        guard, app.program, test::staleRopRequest(app, catalog));
    EXPECT_EQ(report.kind, ViolationReport::Kind::CfiViolation);
    EXPECT_EQ(report.reason,
              "fast path: transition into unloaded module's stale "
              "range");
    EXPECT_TRUE(test::inPluginRange(app, report.to));
}

TEST(ReportParity, SlowPathEscalation)
{
    // Trace loss under EscalateSlowPath sends every lossy window to
    // the slow path, whatever the fast path thought of it: the ROP
    // chain is convicted there.
    const auto spec = vulnSpec();
    const auto app = workloads::buildServerApp(spec);
    FlowGuardConfig config = wholeBuffer();
    config.topaRegions = {2048, 2048};
    config.pmiServiceLatencyBytes = 512;
    config.lossPolicy = LossPolicy::EscalateSlowPath;
    FlowGuard guard = trainedServerGuard(app, spec, config);
    auto input = workloads::makeBenignStream(
        2, 40, spec.numHandlers, spec.numParserStates);
    const auto attack = attacks::buildRopWriteAttack(
        app.program, attacks::scanGadgets(app.program));
    input.insert(input.end(), attack.request.begin(),
                 attack.request.end());

    const auto report = expectParity(guard, app.program, input);
    EXPECT_EQ(report.kind, ViolationReport::Kind::CfiViolation);
    EXPECT_EQ(report.reason.rfind("slow path: ", 0), 0u)
        << report.reason;
    EXPECT_NE(report.to, 0u);
}

TEST(ReportParity, FailClosedLossWindow)
{
    const auto spec = vulnSpec();
    const auto app = workloads::buildServerApp(spec);
    FlowGuardConfig config = wholeBuffer();
    config.topaRegions = {2048, 2048};
    config.pmiServiceLatencyBytes = 512;
    config.lossPolicy = LossPolicy::FailClosed;
    FlowGuard guard = trainedServerGuard(app, spec, config);

    const auto report = expectParity(
        guard, app.program,
        workloads::makeBenignStream(2, 40, spec.numHandlers,
                                    spec.numParserStates));
    EXPECT_EQ(report.kind, ViolationReport::Kind::TraceLoss);
    EXPECT_EQ(report.reason, "trace loss (fail-closed policy)");
    EXPECT_EQ(report.from, 0u);
    EXPECT_EQ(report.to, 0u);
}

TEST(ReportParity, PostMortemPmiReportCarriesTheEvidence)
{
    // Endpoint-pruned PMI mode: a PMI window catches the hijack and
    // the kill lands at the next syscall. A process that stops
    // between the PMI and that syscall never receives the kill, and
    // FlowGuard::run files it post-mortem — naming the same process
    // and offending edge.
    auto spec = vulnSpec();
    spec.workPerRequest = 100;
    const auto app = workloads::buildServerApp(spec);
    FlowGuardConfig config;
    config.endpoints.clear();
    config.pmiChecking = true;
    config.topaRegions = {320, 320};
    config.psbPeriodBytes = 128;
    FlowGuard guard = trainedServerGuard(app, spec, config);
    auto input = attacks::buildMinimalHijackAttack(app.program).request;
    for (uint64_t i = 0; i < 6; ++i) {
        auto benign = workloads::makeBenignStream(
            1, 60 + i, spec.numHandlers, spec.numParserStates);
        input.insert(input.end(), benign.begin(), benign.end());
    }

    const auto delivered = guard.run(input);
    ASSERT_EQ(delivered.stop, cpu::Cpu::Stop::Killed);
    ASSERT_EQ(delivered.violations.size(), 1u);
    const ViolationReport &kill = delivered.violations.front();
    ASSERT_EQ(kill.reason.rfind(pmi_prefix, 0), 0u) << kill.reason;
    EXPECT_EQ(kill.cr3, app.program.cr3());
    EXPECT_NE(kill.to, 0u);

    // The smallest instruction budget that detects anything stops the
    // process right after the convicting PMI.
    uint64_t blind = 0;
    uint64_t detects = delivered.instructions;
    while (detects - blind > 1) {
        const uint64_t mid = blind + (detects - blind) / 2;
        (guard.run(input, mid).attackDetected ? detects : blind) = mid;
    }
    const auto stopped = guard.run(input, detects);
    ASSERT_NE(stopped.stop, cpu::Cpu::Stop::Killed)
        << "the PMI fired at the delivering syscall itself";
    ASSERT_EQ(stopped.violations.size(), 1u);
    const ViolationReport &late = stopped.violations.front();
    EXPECT_EQ(late.reason, kill.reason + " (post-mortem)");
    EXPECT_EQ(late.kind, kill.kind);
    EXPECT_EQ(late.cr3, app.program.cr3());
    EXPECT_EQ(late.from, kill.from);
    EXPECT_EQ(late.to, kill.to);
}

/** Synthetic window with one checked TIP, `source` -> `target`,
 *  entered through a TIP.PGE at `source`. */
std::vector<uint8_t>
oneTipWindow(uint64_t cr3, uint64_t source, uint64_t target)
{
    trace::Topa topa({1 << 16});
    trace::IptEncoder encoder(trace::IptConfig{}, topa);
    cpu::BranchEvent event;
    event.kind = cpu::BranchKind::IndirectCall;
    event.source = source;
    event.target = source;
    event.cr3 = cr3;
    encoder.onBranch(event);
    event.target = target;
    encoder.onBranch(event);
    encoder.flushTnt();
    return topa.snapshot();
}

TEST(ReportParity, AuditReportCarriesTheEndpointSeq)
{
    // JitPolicy::AuditOnly waives a transition into address space no
    // module claims, and the next endpoint files it as an UnknownCode
    // audit report. Inline and through the service, that report must
    // name the endpoint that filed it.
    const auto app = workloads::buildPluginServerApp(pluginSpec());
    FlowGuardConfig config;
    config.dynamicModules = app.dynamicModules;
    config.jitPolicy = dynamic::JitPolicy::AuditOnly;
    FlowGuard guard(app.program, config);
    guard.analyze();
    const uint64_t cr3 = app.program.cr3();
    const auto window = oneTipWindow(
        cr3, app.program.modules()[0].codeBase + 8, 0x0000000333000000ULL);
    const int64_t write = static_cast<int64_t>(isa::Syscall::Write);

    auto audit = [&](bool service_mode) {
        auto proc = guard.makeProcessHarness(app.program);
        const auto fast =
            proc->monitor->fastPhase(window, proc->monitor->pktCount());
        EXPECT_FALSE(fast.needSlow);
        EXPECT_EQ(fast.verdict, CheckVerdict::Pass);
        FlowGuardKernel::Config kconfig;
        kconfig.endpoints = guard.config().endpoints;
        FlowGuardKernel kernel(kconfig);
        ProtectionService service(ServiceConfig{});
        if (service_mode) {
            kernel.attachService(service);
            service.addProcess(cr3, *proc->monitor, *proc->encoder,
                               *proc->topa, *proc->cpu, &proc->cycles);
            EXPECT_EQ(service.attachAll().attached, 1u);
        } else {
            kernel.attachProcess(cr3, *proc->monitor, *proc->encoder,
                                 *proc->topa, &proc->cycles);
        }
        const auto result = kernel.onSyscall(*proc->cpu, write);
        EXPECT_NE(result.action, cpu::SyscallResult::Action::Kill);
        EXPECT_EQ(kernel.auditReports().size(), 1u);
        return kernel.auditReports().empty()
            ? ViolationReport{} : kernel.auditReports().front();
    };

    const ViolationReport inline_audit = audit(false);
    const ViolationReport service_audit = audit(true);
    EXPECT_EQ(inline_audit.kind, ViolationReport::Kind::UnknownCode);
    EXPECT_EQ(inline_audit.cr3, cr3);
    EXPECT_EQ(inline_audit.seq, 1u);
    EXPECT_EQ(service_audit.kind, inline_audit.kind);
    EXPECT_EQ(service_audit.cr3, inline_audit.cr3);
    EXPECT_EQ(service_audit.seq, inline_audit.seq);
    EXPECT_EQ(service_audit.syscall, inline_audit.syscall);
    EXPECT_EQ(service_audit.reason, inline_audit.reason);
}

} // namespace

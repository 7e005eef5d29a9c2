#include "runtime/kernel.hh"

#include "isa/syscalls.hh"
#include "runtime/service.hh"
#include "support/logging.hh"

namespace flowguard::runtime {

using isa::Syscall;

std::set<int64_t>
FlowGuardKernel::defaultEndpoints()
{
    return {
        static_cast<int64_t>(Syscall::Execve),
        static_cast<int64_t>(Syscall::Mmap),
        static_cast<int64_t>(Syscall::Mprotect),
        static_cast<int64_t>(Syscall::Sigreturn),
        static_cast<int64_t>(Syscall::Write),
    };
}

FlowGuardKernel::FlowGuardKernel(Config config)
    : _config(std::move(config))
{}

FlowGuardKernel::~FlowGuardKernel() = default;

void
FlowGuardKernel::attachService(ProtectionService &service)
{
    fg_assert(!_ownService, "attachService after attachProcess");
    _service = &service;
}

void
FlowGuardKernel::attachProcess(uint64_t cr3, Monitor &monitor,
                               trace::IptEncoder &encoder,
                               trace::Topa &topa,
                               cpu::CycleAccount *account)
{
    fg_assert(!_service || _ownService,
              "attachProcess after attachService");
    if (!_ownService) {
        // Inline checking is a service whose deadline cannot be
        // missed: every escalation resolves at its endpoint, and a
        // passing one commits its credit.
        ServiceConfig config;
        config.scheduler.deadlineCycles = UINT64_MAX;
        _ownService = std::make_unique<ProtectionService>(config);
        _service = _ownService.get();
    }
    _service->addProcess(cr3, monitor, encoder, topa, account);
    _service->attachAll();
}

void
FlowGuardKernel::fileAuditReport(Monitor &monitor, uint64_t cr3,
                                 uint64_t seq, int64_t number)
{
    const uint64_t waived = monitor.consumeUnknownAudit();
    if (waived == 0)
        return;
    ViolationReport report;
    report.kind = ViolationReport::Kind::UnknownCode;
    report.cr3 = cr3;
    report.seq = seq;
    report.syscall = number;
    report.reason = "audit-only: " + std::to_string(waived) +
        " unknown-code transition(s) waived";
    _auditReports.push_back(std::move(report));
}

cpu::SyscallResult
FlowGuardKernel::killWith(ViolationReport report)
{
    warn("FlowGuard: ", violationKindName(report.kind), " — SIGKILL (",
         report.reason, ")");
    // Stamp the report with the process's last-N-events story unless
    // the producer already snapshotted closer to the conviction.
    if (_telemetry && report.flight.empty())
        report.flight = _telemetry->snapshotFlight(report.cr3);
    _violations.push_back(std::move(report));
    ++_kills;
    cpu::SyscallResult result;
    result.action = cpu::SyscallResult::Action::Kill;
    return result;
}

cpu::SyscallResult
FlowGuardKernel::onSyscall(cpu::Cpu &cpu, int64_t number)
{
    const uint64_t cr3 = cpu.program().cr3();

    // Verdicts reached outside this syscall — a failed PMI window, a
    // deferred slow-path conviction, a quarantine kill — land at the
    // process's next syscall, whatever its number: the earliest
    // moment the kernel regains control.
    ViolationReport pending;
    if (_service && _service->consumePendingKill(cr3, pending))
        return killWith(std::move(pending));

    // A syscall that retires code (dlclose, jit_unmap) is a barrier:
    // the whole buffer is judged synchronously before dispatch fires
    // the unload event, while the module map still shows it live.
    const bool barrier = number == static_cast<int64_t>(Syscall::DlClose) ||
                         number == static_cast<int64_t>(Syscall::JitUnmap);
    if (_service && (barrier || _config.endpoints.count(number)) &&
        (_service->isProtected(cr3) ||
         _service->recoveryGatePending(cr3))) {
        ++_endpointHits;
        telemetry::ScopedSpan trap(_telemetry,
                                   barrier ? telemetry::SpanKind::Barrier
                                           : telemetry::SpanKind::Trap,
                                   cr3);
        EndpointDecision decision = barrier
            ? _service->codeBarrier(cpu, number)
            : _service->onEndpoint(cpu, number);
        trap.setSeq(decision.seq);
        if (decision.kill) {
            trap.setVerdict(static_cast<uint8_t>(CheckVerdict::Violation));
            return killWith(std::move(decision.report));
        }
        if (Monitor *monitor = _service->monitorFor(cr3))
            fileAuditReport(*monitor, cr3, decision.seq, number);
    }
    return dispatch(cpu, number);
}

} // namespace flowguard::runtime

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

void
FlowGuardKernel::attachProcess(uint64_t cr3, Monitor &monitor,
                               trace::IptEncoder &encoder,
                               trace::Topa &topa,
                               cpu::CycleAccount *account)
{
    Endpoint endpoint;
    endpoint.monitor = &monitor;
    endpoint.encoder = &encoder;
    endpoint.topa = &topa;
    endpoint.account = account;
    _endpoints[cr3] = endpoint;
    _config.protectedCr3s.insert(cr3);
}

bool
FlowGuardKernel::retiresCode(int64_t number)
{
    return number == static_cast<int64_t>(Syscall::DlClose) ||
           number == static_cast<int64_t>(Syscall::JitUnmap);
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
    if ((_pmi && _pmi->consumePendingKill(cr3, pending)) ||
        (_service && _service->consumePendingKill(cr3, pending)))
        return killWith(std::move(pending));

    if (_service) {
        // Service mode: endpoint checks go through the scheduler.
        if (retiresCode(number) &&
            (_service->isProtected(cr3) ||
             _service->recoveryGatePending(cr3))) {
            // Code-unload barrier (see inline mode below): the whole
            // buffer is judged synchronously before the unload event
            // can fire, while the module map still shows the code
            // live.
            ++_endpointHits;
            telemetry::ScopedSpan trap(_telemetry,
                                       telemetry::SpanKind::Barrier,
                                       cr3);
            EndpointDecision decision =
                _service->codeBarrier(cpu, number);
            if (decision.kill)
                return killWith(std::move(decision.report));
            if (Monitor *monitor = _service->monitorFor(cr3))
                fileAuditReport(*monitor, cr3, decision.seq, number);
            return dispatch(cpu, number);
        }
        if (_config.endpoints.count(number) &&
            (_service->isProtected(cr3) ||
             _service->recoveryGatePending(cr3))) {
            ++_endpointHits;
            telemetry::ScopedSpan trap(_telemetry,
                                       telemetry::SpanKind::Trap,
                                       cr3);
            EndpointDecision decision =
                _service->onEndpoint(cpu, number);
            if (decision.kill)
                return killWith(std::move(decision.report));
            if (Monitor *monitor = _service->monitorFor(cr3))
                fileAuditReport(*monitor, cr3, decision.seq, number);
        }
        return dispatch(cpu, number);
    }

    // Inline mode: the original single-kernel path, generalized over
    // the CR3 registry. Checks run synchronously with no deadline.
    const bool guarded = _config.protectedCr3s.count(cr3) != 0;
    const bool barrier = guarded && retiresCode(number);
    const bool intercept = guarded &&
        (barrier || _config.endpoints.count(number));
    auto it = intercept ? _endpoints.find(cr3) : _endpoints.end();

    if (it != _endpoints.end()) {
        Endpoint &endpoint = it->second;
        ++_endpointHits;
        ++endpoint.seq;
        if (endpoint.account)
            endpoint.account->other += cpu::cost::intercept_per_syscall;

        telemetry::ScopedSpan trap(
            _telemetry,
            barrier ? telemetry::SpanKind::Barrier
                    : telemetry::SpanKind::Trap,
            cr3, endpoint.seq);
        endpoint.encoder->flushTnt();
        // The check is synchronous, so it reads the ring in place.
        std::span<const uint8_t> window;
        {
            telemetry::ScopedSpan drain(
                _telemetry, telemetry::SpanKind::TopaDrain, cr3,
                endpoint.seq);
            window = endpoint.topa->view();
            drain.setPayload(window.size());
        }
        // A code-retiring syscall is a barrier: every pre-unload TIP
        // in the buffer is judged now, while the module map still
        // shows the code live — after dispatch fires the unload
        // event, its range convicts on sight.
        const CheckVerdict verdict = barrier
            ? endpoint.monitor->checkFull(window)
            : endpoint.monitor->check(window);
        trap.setVerdict(static_cast<uint8_t>(verdict));
        if (verdict == CheckVerdict::Violation) {
            return killWith(endpoint.monitor->violationReport(
                cr3, endpoint.seq, number));
        }
        fileAuditReport(*endpoint.monitor, cr3, endpoint.seq, number);
        if (barrier) {
            // The window passed: bank any staged credit before the
            // unload event drops entries touching the range, then
            // restart the stream. Post-barrier windows can only hold
            // post-unload TIPs, so a stale-range TIP from here on is
            // evidence of an attack, not history.
            if (endpoint.monitor->cachePending())
                endpoint.monitor->commitCache();
            endpoint.topa->clear();
            endpoint.encoder->restartStream();
        }
    }
    return dispatch(cpu, number);
}

} // namespace flowguard::runtime

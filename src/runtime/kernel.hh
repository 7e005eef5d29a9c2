/**
 * @file
 * FlowGuardKernel — the kernel-module half of FlowGuard (§5.2).
 *
 * Interposes on the syscall table: when a security-sensitive syscall
 * is issued by a protected process (matched by CR3), flow checking
 * is triggered before the original handler runs. On a violation the
 * process receives SIGKILL and the event is logged for the
 * administrator; everything else forwards to the plain kernel
 * services (BasicKernel).
 *
 * The kernel protects a *set* of processes through one
 * ProtectionService: the caller's (attachService: bounded queues,
 * deadlines, circuit breakers), or its own synchronous one that
 * attachProcess() registers into — the paper's inline check, whose
 * deadline cannot be missed.
 */

#ifndef FLOWGUARD_RUNTIME_KERNEL_HH
#define FLOWGUARD_RUNTIME_KERNEL_HH

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cpu/basic_kernel.hh"
#include "runtime/monitor.hh"
#include "runtime/report.hh"
#include "telemetry/telemetry.hh"
#include "trace/ipt.hh"

namespace flowguard::runtime {

class ProtectionService;

class FlowGuardKernel : public cpu::BasicKernel
{
  public:
    struct Config
    {
        std::set<int64_t> endpoints = defaultEndpoints();
        /** CR3s of the guarded processes. Unread: the registry is the
         *  service's (attachProcess / ProtectionService::addProcess). */
        std::set<uint64_t> protectedCr3s;
    };

    /**
     * The paper's default endpoint set (the PathArmor sensitive
     * syscalls): execve, mmap, mprotect, sigreturn and write.
     */
    static std::set<int64_t> defaultEndpoints();

    explicit FlowGuardKernel(Config config);
    ~FlowGuardKernel() override;

    /**
     * Wires the checking engine of one protected process (keyed by
     * its CR3) to its tracing hardware, registering it into the
     * kernel's own synchronous service; the process's CPU is learned
     * at its first endpoint. Must be called before that process's
     * endpoints fire, and never on a kernel given attachService().
     */
    void attachProcess(uint64_t cr3, Monitor &monitor,
                       trace::IptEncoder &encoder, trace::Topa &topa,
                       cpu::CycleAccount *account = nullptr);

    /**
     * Routes endpoint checks through the caller's protection service
     * (overload policies, deadlines, circuit breakers, deferred
     * kills). The service must outlive the kernel. Never mixed with
     * attachProcess() on one kernel.
     */
    void attachService(ProtectionService &service);

    /** The service endpoints route through: the caller's, or the
     *  kernel's own once attachProcess() ran; nullptr before. */
    ProtectionService *service() const { return _service; }

    /**
     * Wires the observability layer: endpoint intercepts emit Trap /
     * Barrier spans carrying the endpoint's seq, and every report
     * killWith() files is stamped with the process's flight-recorder
     * snapshot.
     */
    void attachTelemetry(telemetry::Telemetry *telemetry)
    {
        _telemetry = telemetry;
    }

    cpu::SyscallResult onSyscall(cpu::Cpu &cpu,
                                 int64_t number) override;

    uint64_t endpointHits() const { return _endpointHits; }
    uint64_t kills() const { return _kills; }
    const std::vector<ViolationReport> &violations() const
    {
        return _violations;
    }

    /**
     * Non-fatal Kind::UnknownCode observations filed under
     * JitPolicy::AuditOnly. Kept out of violations() so detection
     * semantics (attackDetected, kill counts) are unchanged by
     * auditing.
     */
    const std::vector<ViolationReport> &auditReports() const
    {
        return _auditReports;
    }

  private:
    cpu::SyscallResult killWith(ViolationReport report);

    /** Turns waived unknown-code transitions accumulated in the
     *  monitor into one Kind::UnknownCode audit report. */
    void fileAuditReport(Monitor &monitor, uint64_t cr3, uint64_t seq,
                         int64_t number);

    Config _config;
    /** The synchronous service attachProcess() registers into. */
    std::unique_ptr<ProtectionService> _ownService;
    ProtectionService *_service = nullptr;
    telemetry::Telemetry *_telemetry = nullptr;
    uint64_t _endpointHits = 0;
    uint64_t _kills = 0;
    std::vector<ViolationReport> _violations;
    std::vector<ViolationReport> _auditReports;
};

} // namespace flowguard::runtime

#endif // FLOWGUARD_RUNTIME_KERNEL_HH

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
 * The kernel protects a *set* of processes: Config carries a CR3
 * registry and each protected process is wired to its own checking
 * engine with attachProcess(). A ProtectionService may additionally
 * be attached; endpoint checks then route through its scheduler
 * (bounded queues, deadlines, circuit breakers) instead of running
 * unbounded inline.
 */

#ifndef FLOWGUARD_RUNTIME_KERNEL_HH
#define FLOWGUARD_RUNTIME_KERNEL_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cpu/basic_kernel.hh"
#include "runtime/monitor.hh"
#include "runtime/pmi.hh"
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
        /** The protection registry: CR3s of all guarded processes. */
        std::set<uint64_t> protectedCr3s;
    };

    /**
     * The paper's default endpoint set (the PathArmor sensitive
     * syscalls): execve, mmap, mprotect, sigreturn and write.
     */
    static std::set<int64_t> defaultEndpoints();

    explicit FlowGuardKernel(Config config);

    /**
     * Wires the checking engine of one protected process (keyed by
     * its CR3) to its tracing hardware. Must be called before that
     * process's endpoints fire.
     */
    void attachProcess(uint64_t cr3, Monitor &monitor,
                       trace::IptEncoder &encoder, trace::Topa &topa,
                       cpu::CycleAccount *account = nullptr);

    /**
     * Routes endpoint checks through a protection service (overload
     * policies, deadlines, circuit breakers, deferred kills). The
     * service must outlive the kernel.
     */
    void attachService(ProtectionService &service)
    {
        _service = &service;
    }

    /**
     * Enables the §7.1.2 fallback: PMI-window violations detected by
     * `pmi` are delivered as SIGKILL at the process's next syscall —
     * the earliest moment the kernel regains control in this model.
     */
    void attachPmi(PmiGuard &pmi) { _pmi = &pmi; }

    /**
     * Wires the observability layer: endpoint intercepts emit Trap /
     * TopaDrain spans and every report killWith() files is stamped
     * with the process's flight-recorder snapshot.
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
    /** Per-process endpoint wiring (checking engine + trace tap). */
    struct Endpoint
    {
        Monitor *monitor = nullptr;
        trace::IptEncoder *encoder = nullptr;
        trace::Topa *topa = nullptr;
        cpu::CycleAccount *account = nullptr;
        uint64_t seq = 0;       ///< endpoint hits for this process
    };

    cpu::SyscallResult killWith(ViolationReport report);

    /** True for syscalls that retire executable code (dlclose,
     *  jit_unmap) — these run the code-unload barrier. */
    static bool retiresCode(int64_t number);

    /** Turns waived unknown-code transitions accumulated in the
     *  monitor into one Kind::UnknownCode audit report. */
    void fileAuditReport(Monitor &monitor, uint64_t cr3, uint64_t seq,
                         int64_t number);

    Config _config;
    std::map<uint64_t, Endpoint> _endpoints;
    ProtectionService *_service = nullptr;
    PmiGuard *_pmi = nullptr;
    telemetry::Telemetry *_telemetry = nullptr;
    uint64_t _endpointHits = 0;
    uint64_t _kills = 0;
    std::vector<ViolationReport> _violations;
    std::vector<ViolationReport> _auditReports;
};

} // namespace flowguard::runtime

#endif // FLOWGUARD_RUNTIME_KERNEL_HH

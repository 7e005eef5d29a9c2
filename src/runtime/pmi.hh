/**
 * @file
 * PMI-driven periodic checking (§7.1.2 "Endpoints bypassing").
 *
 * Syscall endpoints can in principle be pruned by an attacker who
 * reaches their goal without touching a sensitive syscall. As the
 * paper notes, the fallback is to treat the buffer-full performance
 * monitoring interrupt as an endpoint: whenever the ToPA's last
 * region fills, the kernel checks the freshly captured window before
 * tracing wraps over it. This trades overhead (checks scale with
 * trace volume, not syscall rate) for endpoint-independence.
 *
 * PmiGuard wires a Topa's PMI callback to a Monitor and keeps the
 * same verdict discipline as the syscall path: on violation the
 * process is flagged and the hosting kernel delivers SIGKILL at the
 * next controllable boundary.
 */

#ifndef FLOWGUARD_RUNTIME_PMI_HH
#define FLOWGUARD_RUNTIME_PMI_HH

#include <cstdint>
#include <optional>

#include "runtime/monitor.hh"
#include "runtime/report.hh"
#include "trace/ipt.hh"

namespace flowguard::runtime {

class PmiGuard
{
  public:
    /**
     * Arms the PMI of process `cr3`: `topa`'s buffer-full callback
     * now triggers a monitor check over the full buffer. The encoder
     * is needed to flush buffered TNT bits before decoding.
     */
    PmiGuard(uint64_t cr3, Monitor &monitor, trace::IptEncoder &encoder,
             trace::Topa &topa, cpu::CycleAccount *account = nullptr);

    /** True while a failed PMI window's kill awaits delivery. */
    bool violationPending() const { return _pending.has_value(); }

    /**
     * Pops the pending kill when it belongs to `cr3`. The report is
     * the monitor's, captured when the PMI fired (later passing
     * windows must not repaint it), with a "PMI window: " prefix,
     * seq = the PMI count and syscall = -1. The kernel calls this at
     * every syscall; FlowGuard::run takes a kill the process never
     * reached post-mortem.
     */
    bool consumePendingKill(uint64_t cr3, ViolationReport &out);

    /** Wires the observability layer: every PMI window check is a
     *  PmiCheck span attributed to the guarded process. Optional. */
    void
    setTelemetry(telemetry::Telemetry *telemetry)
    {
        _telemetry = telemetry;
    }

    uint64_t pmiCount() const { return _pmis; }

  private:
    void onPmi();

    uint64_t _cr3;
    Monitor &_monitor;
    trace::IptEncoder &_encoder;
    trace::Topa &_topa;
    cpu::CycleAccount *_account;
    std::optional<ViolationReport> _pending;
    uint64_t _pmis = 0;
    telemetry::Telemetry *_telemetry = nullptr;
};

} // namespace flowguard::runtime

#endif // FLOWGUARD_RUNTIME_PMI_HH

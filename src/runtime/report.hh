/**
 * @file
 * ViolationReport — the one record FlowGuard files for an
 * administrator when it kills, waives or cannot protect a process
 * (§5.2). Monitor::violationReport() builds every report that comes
 * from a check verdict; callers only append their context suffix.
 */

#ifndef FLOWGUARD_RUNTIME_REPORT_HH
#define FLOWGUARD_RUNTIME_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/events.hh"

namespace flowguard::runtime {

/** One logged detection, the report "to administrators or users". */
struct ViolationReport
{
    /**
     * What the report actually claims: a CfiViolation is evidence of
     * a hijacked control flow; a TraceLoss conviction only says the
     * fail-closed policy refused to pass an unverifiable window; a
     * CheckTimeout conviction says the overload policy refused to
     * wait for the verdict; AttachFailure and Quarantined are
     * control-plane outcomes (a process the service could not
     * protect, a process the circuit breaker isolated). An
     * administrator triages each very differently.
     */
    enum class Kind : uint8_t {
        CfiViolation,
        TraceLoss,
        CheckTimeout,
        AttachFailure,
        Quarantined,
        /** AuditOnly observation: transitions through unknown code
         *  were waived, not enforced. Never a kill — these live in
         *  auditReports(), not violations(). */
        UnknownCode,
        /** The checker was dead or restarting for a window of this
         *  process's execution. Never a kill under ResyncAndAudit —
         *  the report bounds the unchecked window (fromCycle in
         *  `from`, toCycle in `to`) so an auditor knows exactly which
         *  cycles ran without enforcement. */
        ProtectionGap,
    };

    Kind kind = Kind::CfiViolation;
    /** Process identity: multi-process reports must be attributable. */
    uint64_t cr3 = 0;
    /** Sequence number of the checked window within that process
     *  (1-based): the endpoint count, or the PMI count for a PMI
     *  window. */
    uint64_t seq = 0;
    /** The endpoint syscall; -1 when no syscall triggered the check
     *  (PMI window, end-of-run drain, post-gap catch-up). */
    int64_t syscall = 0;
    uint64_t from = 0;
    uint64_t to = 0;
    std::string reason;
    /**
     * Flight-recorder snapshot taken when the report was built: the
     * last-N telemetry events (spans, decoder loss, credit commits,
     * the conviction itself) for this process — the forensic story
     * of how the verdict came about. Empty when no telemetry hub was
     * attached.
     */
    std::vector<telemetry::FlightEvent> flight;
};

const char *violationKindName(ViolationReport::Kind kind);

} // namespace flowguard::runtime

#endif // FLOWGUARD_RUNTIME_REPORT_HH

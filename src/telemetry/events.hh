/**
 * @file
 * Telemetry event model — the span taxonomy for the endpoint-check
 * lifecycle and the instant events that ride alongside it.
 *
 * A span is one timed stage of a check (trap → fast decode →
 * binary-search check → slow-path escalation → verdict commit →
 * delivery); an instant is a point event (an OVF episode, a
 * credit commit, a conviction). Both flatten into the same POD
 * `FlightEvent` so one ring buffer, one sink interface, and one
 * serialization path carry everything.
 *
 * Timestamps are sim-clock cycles from the cost model — never wall
 * clock — so two runs of the same seeded workload emit byte-identical
 * streams.
 */

#ifndef FLOWGUARD_TELEMETRY_EVENTS_HH
#define FLOWGUARD_TELEMETRY_EVENTS_HH

#include <cstdint>

namespace flowguard::telemetry {

/** Stages of the endpoint-check lifecycle (ISSUE §tentpole). */
enum class SpanKind : uint8_t {
    Trap,          ///< endpoint intercept: syscall entry to decision
    FastDecode,    ///< packet-layer decode of the window
    FastCheck,     ///< binary-search ITC-CFG matching
    SlowEscalate,  ///< escalation: submit → resolution/delivery
    SlowCheck,     ///< full decode + shadow stack / TypeArmor walk
    FullDecode,    ///< instruction-flow-layer decode (inside slow)
    VerdictCommit, ///< staged verdict-cache commit
    Delivery,      ///< deferred verdict / pending-kill delivery
    PmiCheck,      ///< mem-write-window check inside a PMI
    Barrier,       ///< code-unload barrier check
};

const char *spanKindName(SpanKind kind);

/** Everything a flight recorder ring can hold. */
enum class EventKind : uint8_t {
    Span,             ///< a completed span (see SpanKind)
    Overflow,         ///< hardware OVF episode (a = dropped bytes)
    Resync,           ///< decoder skip-to-sync (a = count, b = bytes)
    CreditCommit,     ///< verdict-cache commit (a = new pairs, b = new n-grams)
    Violation,        ///< conviction (a = from, b = to)
    VerdictCommitted, ///< deferred kill journaled (a = seq)
    VerdictDelivered, ///< deferred kill delivered (a = seq)
    CheckerCrash,     ///< checker process died (a = 1 when hang)
    CheckerRestart,   ///< warm restart completed
    FaultInjected,    ///< control-plane fault fired (a = FaultMode)
};

const char *eventKindName(EventKind kind);

/**
 * One telemetry event, span or instant. POD on purpose: rings copy
 * it, reports snapshot vectors of it, sinks serialize it.
 */
struct FlightEvent
{
    EventKind kind = EventKind::Span;
    SpanKind span = SpanKind::Trap; ///< meaningful when kind == Span
    uint8_t verdict = 0;  ///< CheckVerdict for check spans (0 = n/a)
    uint64_t id = 0;      ///< span id; 0 for instants
    uint64_t parent = 0;  ///< enclosing span id; 0 at top level
    uint64_t cr3 = 0;
    uint64_t seq = 0;     ///< endpoint sequence number (0 = n/a)
    uint64_t begin = 0;   ///< sim cycles (== end for instants)
    uint64_t end = 0;
    uint64_t a = 0;       ///< payload: from-address, bytes, count...
    uint64_t b = 0;       ///< payload: to-address...
};

} // namespace flowguard::telemetry

#endif // FLOWGUARD_TELEMETRY_EVENTS_HH

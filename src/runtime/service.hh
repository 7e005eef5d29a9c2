/**
 * @file
 * ProtectionService — overload-resilient multi-process protection.
 *
 * The kernel module gives each protected process a checking engine;
 * the service is the layer above that keeps the *fleet* healthy when
 * the checking capacity is oversubscribed. It owns:
 *
 *  - the per-process protection registry (monitor + trace tap + CPU,
 *    keyed by CR3) with per-process endpoint sequence numbers, so
 *    every ViolationReport is attributable;
 *  - a CheckScheduler: slow-path escalations become bounded,
 *    deadlined work items resolved by the OverloadPolicy;
 *  - adaptive batching: scheduler backpressure widens the fast path's
 *    pkt_count windows and coalesces endpoint checks whose trace has
 *    not advanced — every coalesced check is counted, and drain()
 *    ends the run with one full check per process so detection is
 *    guaranteed (possibly late), never silently skipped;
 *  - a per-process circuit breaker: a process whose checks keep
 *    missing deadlines stops degrading everyone else — it is
 *    quarantined (suspended, killed, or demoted to audit-class
 *    checking, per QuarantineAction);
 *  - attach/trace-start with retry: control-plane faults injected by
 *    a trace::FaultInjector are absorbed by seeded exponential
 *    backoff with jitter; permanent failures surface as
 *    AttachFailure reports instead of silently unprotected processes.
 *
 * Deferred verdicts, PMI-window convictions and quarantine kills
 * share one queue per process, delivered through the kernel at the
 * target process's next syscall (consumePendingKill), earliest first.
 *
 * The paper's synchronous inline check is one configuration of it
 * (FlowGuardKernel::attachProcess): deadlineCycles = UINT64_MAX, so
 * every escalation resolves at its endpoint, a pass banking credit.
 */

#ifndef FLOWGUARD_RUNTIME_SERVICE_HH
#define FLOWGUARD_RUNTIME_SERVICE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "cpu/machine.hh"
#include "runtime/kernel.hh"
#include "runtime/monitor.hh"
#include "runtime/scheduler.hh"
#include "support/random.hh"
#include "trace/faults.hh"
#include "trace/ipt.hh"

namespace flowguard::runtime {

/** What the circuit breaker does with a process it trips on. */
enum class QuarantineAction : uint8_t {
    /** Park it: the machine stops scheduling it, its queued checks
     *  are dropped (counted). State is preserved for triage. */
    Suspend,
    /** Kill it at its next syscall. */
    Kill,
    /** Keep it running but demote its checks to audit-class (first
     *  to shed, never enforced) — it can no longer monopolize the
     *  checking core. */
    Audit,
};

const char *quarantineActionName(QuarantineAction action);

/** Attach / trace-start tries per process, with exponential backoff
 *  and jitter between them. */
inline constexpr uint32_t max_attach_attempts = 6;

struct ServiceConfig
{
    SchedulerConfig scheduler;
    /** Consecutive deadline misses before the breaker trips. */
    uint32_t breakerThreshold = 4;
    QuarantineAction quarantineAction = QuarantineAction::Suspend;
};

struct ServiceStats
{
    uint64_t endpointChecks = 0;    ///< endpoint hits routed here
    uint64_t barrierChecks = 0;     ///< code-unload barrier checks
    uint64_t coalesced = 0;         ///< checks skipped by batching
    uint64_t inlineFastPass = 0;    ///< resolved by fast phase alone
    uint64_t inlineFastViolations = 0; ///< fast phase convicted inline
    uint64_t escalations = 0;       ///< submitted to the scheduler
    uint64_t deferredKills = 0;     ///< late verdicts turned SIGKILL
    uint64_t auditViolations = 0;   ///< violations observed, waived
    uint64_t quarantines = 0;       ///< breaker trips
    uint64_t pmiStormChecks = 0;    ///< injected spurious checks
    uint64_t pmiChecks = 0;         ///< buffer-full PMI window checks
    uint64_t attachAttempts = 0;    ///< attach tries incl. retries
    uint64_t attachRetries = 0;     ///< failed tries that were retried
    uint64_t attachFailures = 0;    ///< processes never protected
    uint64_t attachBackoffCycles = 0;

    // Crash-recovery accounting (zero without a RecoverySupervisor).
    uint64_t gapSkipped = 0;        ///< endpoints unchecked: dead checker
    uint64_t crashWipedKills = 0;   ///< pending kills lost to a crash
    uint64_t requeuedKills = 0;     ///< kills restored by journal replay
    uint64_t resyncChecks = 0;      ///< post-gap catch-up checks

    /**
     * The service-level accounting identities, as code:
     *
     *   endpointChecks  == coalesced + inlineFastPass
     *                    + inlineFastViolations + escalations
     *   attachAttempts  >= attachRetries + attachFailures
     *   crashWipedKills >= requeuedKills
     *
     * Every endpoint hit the service accepted is either coalesced
     * into a later window, resolved by the inline fast phase (pass or
     * violation), or escalated to the scheduler — there is no fifth
     * bucket. Returns false and describes the first broken identity
     * in `why` (when given). Called from tests and from every
     * ProtectionService::drain().
     */
    bool checkInvariants(std::string *why = nullptr) const;
};

/** What the kernel should do with the endpoint that just fired. */
struct EndpointDecision
{
    bool kill = false;
    ViolationReport report;
    /** The process's endpoint sequence number after this endpoint. */
    uint64_t seq = 0;
};

/**
 * The class every cycle of a protected process belongs to — the
 * no-silent-gap identity. Each checked window attributes the cycles
 * since the previous attribution to exactly one class, so
 * checked + deferred + lossy + gap always equals the cycles the
 * process retired under protection. "Unknown" is deliberately not a
 * class: a cycle the accounting cannot place is a bug, not a bucket.
 */
enum class ProtectionWindowClass : uint8_t {
    Checked,    ///< verdict available at (or computed for) the window
    Deferred,   ///< ran on; verdict delivered late but guaranteed
    Lossy,      ///< checked best-effort; the trace had gaps
    Gap,        ///< no checker existed — crash/hang window, or shed
};

/**
 * The seam between the service and the crash-recovery subsystem
 * (src/recovery). The service never knows *how* journaling, the
 * watchdog or warm restart work — it only reports protection-state
 * mutations and asks, per endpoint, whether a live checker exists.
 * Declared here so runtime does not depend on recovery; the
 * RecoverySupervisor implements it and wires itself in via
 * ProtectionService::setRecoveryHooks.
 */
class RecoveryHooks
{
  public:
    virtual ~RecoveryHooks() = default;

    enum class Gate : uint8_t {
        Proceed,        ///< checker alive: check normally
        SkipUnchecked,  ///< checker dead/restarting: window is a gap
    };

    /** Called at every endpoint entry, before any checking. `seq` is
     *  the sequence number this endpoint carries. May perform a warm
     *  restart internally before answering. */
    virtual Gate gateEndpoint(uint64_t cr3, uint64_t seq,
                              uint64_t now) = 0;

    /** Called once at drain() before the final per-process checks. */
    virtual Gate gateDrain(uint64_t now) = 0;

    /** True while no live checker exists (crashed or hung, restart
     *  not yet performed). The kernel uses this to keep delivering
     *  endpoint traps to detached processes: the crash is what
     *  detached them, and the gate behind the trap is what observes
     *  the outage, accounts it, and performs the warm restart. */
    virtual bool checkerDown() const { return false; }

    /** Every endpoint/barrier/drain window reports its class here —
     *  including Gap windows the gate itself skipped. */
    virtual void noteWindow(uint64_t cr3, uint64_t seq,
                            ProtectionWindowClass cls) = 0;

    /** A violation verdict was committed (queued for delivery). The
     *  journal makes it durable so a crash between commit and
     *  delivery cannot lose — or double-deliver — the kill. */
    virtual void noteVerdictCommitted(const ViolationReport &report)
        = 0;

    /** The committed verdict reached its process (or post-mortem). */
    virtual void noteVerdictDelivered(uint64_t cr3, uint64_t seq) = 0;
};

class ProtectionService
{
  public:
    explicit ProtectionService(ServiceConfig config = {});

    /** Quarantine-by-suspension needs the machine's scheduler. */
    void setMachine(cpu::Machine &machine) { _machine = &machine; }

    /** Control-plane fault source (attach failures, PMI storms,
     *  slow-path stalls). Optional; absent means a clean plane. */
    void setFaultInjector(trace::FaultInjector &faults)
    {
        _faults = &faults;
    }

    /** Wires the crash-recovery subsystem in. Optional; absent means
     *  the checker is assumed immortal (the pre-recovery behavior). */
    void setRecoveryHooks(RecoveryHooks *hooks) { _recovery = hooks; }

    /**
     * Wires the observability layer. The service emits SlowEscalate
     * spans (enqueue-to-verdict, on the scheduler's virtual clock),
     * Delivery spans and VerdictCommitted/VerdictDelivered instants,
     * records slow-check cost and deferral-age histograms, and stamps
     * every report it files with the process's flight-recorder
     * snapshot. Also forwards the hub to every registered monitor
     * (current and future). Optional; nullptr detaches.
     */
    void setTelemetry(telemetry::Telemetry *telemetry);

    /**
     * Registers one process. The monitor should run with
     * autoCommitCache=false — the scheduler decides cache commits —
     * unless the deadline cannot be missed (the synchronous
     * configuration), where every pass commits anyway. The service
     * enforces nothing; it never calls commitCache() for timed-out or
     * deferred windows.
     */
    void addProcess(uint64_t cr3, Monitor &monitor,
                    trace::IptEncoder &encoder, trace::Topa &topa,
                    cpu::Cpu &cpu,
                    cpu::CycleAccount *account = nullptr);

    /** Registers a process whose CPU is learned at its first
     *  endpoint; until then it adds nothing to virtualNow(). */
    void addProcess(uint64_t cr3, Monitor &monitor,
                    trace::IptEncoder &encoder, trace::Topa &topa,
                    cpu::CycleAccount *account = nullptr);

    struct AttachOutcome
    {
        uint32_t attached = 0;
        uint32_t failed = 0;
    };

    /**
     * Attaches every registered process: syscall interposition, then
     * trace start, each retried under seeded exponential backoff with
     * jitter when the fault injector fails them. A process that
     * exhausts its attempts is left unprotected and an AttachFailure
     * report is filed.
     */
    AttachOutcome attachAll();

    /** True when the process is registered and attach succeeded. */
    bool isProtected(uint64_t cr3) const;

    /** True when the process is registered but the checker is down:
     *  a crash detached everyone, and the kernel must keep routing
     *  endpoint traps through the service so the recovery gate can
     *  observe the outage, account the gap, and warm-restart. */
    bool recoveryGatePending(uint64_t cr3) const;

    /**
     * The endpoint upcall: runs the fast phase inline, routes
     * escalations through the scheduler, applies the overload policy
     * and the circuit breaker. Called by the kernel with the
     * issuing CPU on an endpoint syscall.
     */
    EndpointDecision onEndpoint(cpu::Cpu &cpu, int64_t syscall);

    /**
     * The code-unload barrier for a dlclose / jit_unmap syscall: a
     * synchronous full-buffer check (never scheduled or deferred —
     * the unload must not complete before the verdict), then the
     * staged verdict cache is committed and the trace stream
     * restarted so post-barrier windows can only hold post-unload
     * TIPs.
     */
    EndpointDecision codeBarrier(cpu::Cpu &cpu, int64_t syscall);

    /**
     * Enables PMI-driven checking for process `cr3` (paper §7.1.2,
     * "Endpoints bypassing"). Syscall endpoints can in principle be
     * pruned by an attacker who reaches their goal without touching a
     * sensitive syscall. The fallback treats the buffer-full
     * performance monitoring interrupt as one more endpoint: whenever
     * the ToPA's last region fills, the whole freshly captured buffer
     * is checked before tracing wraps over it. Checks then scale with
     * trace volume, not syscall rate, in exchange for
     * endpoint-independence.
     *
     * Points the process's Topa PMI callback at the service. Each PMI
     * of an attached process is charged as an intercept, and every
     * TIP in the ring is checked, fast phase then slow phase (a
     * PmiCheck span on the monitor's hub, seq = the process's PMI
     * count); a pass banks staged credit, as the code barrier does.
     * A conviction is enforced like any other: its report, prefixed
     * "PMI window: " with seq = the PMI count and syscall = -1, joins
     * the process's kill queue (or is waived for an audit-class
     * process), and the kernel delivers it at the process's next
     * syscall — the earliest moment it regains control. The process
     * must be registered.
     */
    void armPmi(uint64_t cr3);

    /** The monitor registered for `cr3` (nullptr when unknown) —
     *  lets the kernel drain audit observations after a decision. */
    Monitor *
    monitorFor(uint64_t cr3)
    {
        auto it = _processes.find(cr3);
        return it == _processes.end() ? nullptr : it->second.monitor;
    }

    /**
     * Pops the oldest queued kill for `cr3` (deferred verdicts, PMI
     * windows, quarantine kills). The kernel consumes these at every
     * syscall of the target process.
     */
    bool consumePendingKill(uint64_t cr3, ViolationReport &out);

    /**
     * End of run: one full-window check per attached process (so
     * coalesced endpoints are verified), then the scheduler drains.
     * Verdicts that could no longer be enforced (their process
     * already stopped) become post-mortem reports; those queued
     * behind a kill that already ended their process are retired
     * unreported, journaled as delivered all the same.
     */
    void drain();

    /** Control-plane reports: attach failures, quarantines, waived
     *  or post-mortem violations. Kills are in kernel.violations(). */
    const std::vector<ViolationReport> &reports() const
    {
        return _reports;
    }

    const ServiceStats &stats() const { return _stats; }
    const SchedulerStats &schedulerStats() const
    {
        return _scheduler.stats();
    }
    const CheckScheduler &scheduler() const { return _scheduler; }

    /** Sum of registered CPUs' retired instructions — the virtual
     *  clock the scheduler's deadlines are measured on. */
    uint64_t virtualNow() const;

    /** Full no-silent-drop accounting, including live queue depth. */
    bool accountingBalances() const
    {
        return _scheduler.accountingBalances();
    }

    // --- crash-recovery entry points (RecoverySupervisor only) -------------

    /**
     * The checker process died: its volatile state is gone. Drops the
     * scheduler's queue (counted into lostToCrash), every staged
     * verdict cache, and every undelivered pending kill (counted;
     * journal replay restores the committed ones). Registry state that
     * lives kernel-side — sequence numbers, attach records — survives.
     * Returns the number of pending kills wiped.
     */
    size_t crashWipe();

    /** The dead checker's syscall interposition is gone with it; every
     *  process must re-attach (with the usual retry/backoff) before it
     *  is protected again. Returns how many were detached. */
    size_t detachAllForCrash();

    /** Re-queues a journal-replayed committed-but-undelivered kill.
     *  Does not re-journal it — it is already durable. */
    void requeueKill(ViolationReport report);

    struct ResyncOutcome
    {
        bool checked = false;       ///< false: process unknown/unattached
        bool violation = false;
        ViolationReport report;     ///< valid when `violation`
    };

    /**
     * Post-gap catch-up: one synchronous full-window check over
     * everything that accumulated while the checker was down, in
     * audit mode — a verdict computed over a buffer that spans the
     * gap (and possible module churn) is evidence for the supervisor
     * to report, not grounds for a kill. The staged cache is
     * discarded (credit from a gap-spanning window is never banked)
     * and the stream restarts at a fresh sync point, so
     * post-recovery windows hold only post-recovery TIPs.
     */
    ResyncOutcome resyncCheck(uint64_t cr3);

  private:
    struct ProcessRecord
    {
        uint64_t cr3 = 0;
        Monitor *monitor = nullptr;
        trace::IptEncoder *encoder = nullptr;
        trace::Topa *topa = nullptr;
        cpu::Cpu *cpu = nullptr;
        cpu::CycleAccount *account = nullptr;
        uint64_t seq = 0;
        uint64_t pmis = 0;
        uint64_t lastCheckedWritten = 0;
        uint32_t consecutiveMisses = 0;
        uint32_t attachAttempts = 0;
        bool attached = false;
        bool quarantined = false;
        /** A queued kill was delivered: the process is gone, and what
         *  is still queued for it can never be enforced. */
        bool killed = false;
        std::deque<ViolationReport> pendingKills;
    };

    bool attachOne(ProcessRecord &proc);
    /** The entry both endpoint kinds share: finds the caller's record
     *  (learning its CPU), runs the recovery gate, then the attached
     *  check. nullptr when `decision` is already final. */
    ProcessRecord *admit(cpu::Cpu &cpu, EndpointDecision &decision);
    /** A conviction becomes a kill in `decision`, or a waived report
     *  for an audit-class process. */
    void enforce(const ProcessRecord &proc, ViolationReport report,
                 EndpointDecision &decision);
    /** Queues a committed kill for delivery at the process's next
     *  syscall, journaling the commit point. */
    void queueKill(ProcessRecord &proc, ViolationReport report);
    /** The PMI trigger armPmi() installs. */
    void onPmi(uint64_t cr3);
    CheckExecution execute(const CheckRequest &request);
    void cacheDecision(const CheckRequest &request, bool commit);
    void deliver(const CheckRequest &request,
                 const CheckExecution &exec, uint64_t age);
    /** Applies a submit outcome; returns a kill decision if any.
     *  `now` is the virtual time the escalation was submitted at. */
    EndpointDecision resolve(ProcessRecord &proc, int64_t syscall,
                             const CheckScheduler::SubmitOutcome &out,
                             bool loss, uint64_t now);
    struct SyncCheck
    {
        CheckVerdict verdict = CheckVerdict::Pass;
        bool loss = false;          ///< the window saw trace loss
    };
    /** The one synchronous check, never scheduled: the fast phase
     *  over at least `pkt_count` TIPs of the live ring, then the slow
     *  phase if it escalates. The PMI window, the code barrier and
     *  the post-gap catch-up check the whole ring; drain() the
     *  configured window. Callers flush the encoder's TNT first,
     *  except the PMI, which fires inside the encoder's write. */
    SyncCheck checkNow(ProcessRecord &proc, size_t pkt_count);
    /** Their tail when the process lives on: banks (`bank`) or drops
     *  the staged credit and restarts the stream, so later windows
     *  hold only later TIPs. A barrier kill skips it, leaving the
     *  evidence in the ring for drain(). */
    void restartStream(ProcessRecord &proc, bool bank);
    /** Reports one window's class (and seq) to the recovery hooks. */
    void noteWindow(const ProcessRecord &proc,
                    ProtectionWindowClass cls);
    void noteDeadlineMiss(ProcessRecord &proc, int64_t syscall,
                          EndpointDecision &decision);
    /** Stamps `report` with its process's flight-recorder snapshot
     *  (unchanged when no telemetry hub is attached). */
    ViolationReport withFlight(ViolationReport report) const;

    ServiceConfig _config;
    CheckScheduler _scheduler;
    cpu::Machine *_machine = nullptr;
    trace::FaultInjector *_faults = nullptr;
    RecoveryHooks *_recovery = nullptr;
    telemetry::Telemetry *_telemetry = nullptr;
    /** Cached histogram handles (stable for the registry's life). */
    telemetry::CycleHistogram *_histSlowCheck = nullptr;
    telemetry::CycleHistogram *_histDeferralAge = nullptr;
    Rng _rng;
    std::map<uint64_t, ProcessRecord> _processes;
    std::vector<ViolationReport> _reports;
    ServiceStats _stats;
    bool _drained = false;
};

} // namespace flowguard::runtime

#endif // FLOWGUARD_RUNTIME_SERVICE_HH

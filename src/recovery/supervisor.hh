/**
 * @file
 * RecoverySupervisor — watchdog, journal owner, and warm-restart
 * engine for the protection service.
 *
 * The simulator's crash model: one checker process hosts every
 * monitor. When it dies (or hangs), all volatile checking state goes
 * with it — the scheduler queue, staged verdict caches, the runtime
 * overlays (learned credit, TNT and n-grams), undelivered pending
 * kills. What survives is what
 * the supervisor holds on the other side of the process boundary:
 * the journal bytes, the last snapshot, and the kernel-side registry
 * (sequence numbers, module map). The protected processes keep
 * running and the hardware keeps tracing; nobody is checking.
 *
 * The watchdog state machine:
 *
 *   Alive --crash/hang--> Dead --restartAt reached--> Alive
 *
 * Death is detected by missed heartbeats: detectAt = crashAt +
 * heartbeatInterval * missedHeartbeatsToDeclareDead, and the warm
 * restart completes restartLatencyCycles later. Under FailClosed the
 * fleet is frozen for the whole outage, so on the virtual
 * (retired-instruction) clock the window collapses: frozen processes
 * retire nothing, and restartAt == detectAt.
 *
 * A crash clears every process's runtime overlay: runtime credit,
 * runtime TNT sequences and runtime n-grams. Warm restart = fold
 * (snapshot + journal tail) read back: re-attach with the usual
 * retry/backoff, learn each process's journaled commit deltas back
 * into the overlay through Monitor::replayCommit (minus pairs on
 * ranges the module map says are retired), re-queue
 * committed-but-undelivered kills (deduped against the delivered
 * set), run one audit-only catch-up check per process, and emit a
 * ProtectionGap report bounding the unchecked window. The
 * RecoveryPolicy decides what the window cost:
 *
 *   FailClosed     freeze the fleet; zero-width gap, availability hit
 *   ResyncAndAudit run through the gap; report it, force the first
 *                  post-resync window through the slow path
 *   ColdRestart    run through the gap; replay nothing, so checking
 *                  restarts from trained state alone (warm-up cost
 *                  instead of replay trust)
 */

#ifndef FLOWGUARD_RECOVERY_SUPERVISOR_HH
#define FLOWGUARD_RECOVERY_SUPERVISOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/itc_cfg.hh"
#include "cpu/cpu.hh"
#include "cpu/events.hh"
#include "dynamic/dynamic_guard.hh"
#include "recovery/gap_ledger.hh"
#include "recovery/journal.hh"
#include "recovery/snapshot.hh"
#include "runtime/service.hh"
#include "support/stats.hh"
#include "trace/faults.hh"

namespace flowguard::recovery {

/** What a warm restart does about the protection gap it just closed. */
enum class RecoveryPolicy : uint8_t {
    /** Freeze every protected process from crash detection until the
     *  checker is back: no cycle ever runs unchecked, at the price of
     *  fleet-wide downtime. */
    FailClosed,
    /** Let the fleet run through the gap; on restart, replay credit,
     *  audit-check what accumulated, report the gap's exact bounds,
     *  and force the first post-resync window through the slow path.
     *  The default. */
    ResyncAndAudit,
    /** Like ResyncAndAudit, but trust nothing the journal says about
     *  credit: the ITC-CFG restarts with trained credit only and
     *  re-earns the rest. */
    ColdRestart,
};

const char *recoveryPolicyName(RecoveryPolicy policy);

struct RecoveryConfig
{
    RecoveryPolicy policy = RecoveryPolicy::ResyncAndAudit;
    /** Virtual cycles between checker heartbeats. */
    uint64_t heartbeatIntervalCycles = 50'000;
    /** Consecutive missed heartbeats before the watchdog declares
     *  the checker dead. */
    uint32_t missedHeartbeatsToDeclareDead = 3;
    /** Restart cost: fork/exec, snapshot load, journal replay,
     *  re-attach. Ignored under FailClosed (frozen processes retire
     *  nothing, so the virtual-clock window collapses). */
    uint64_t restartLatencyCycles = 200'000;
    /** Journal records between compactions into a snapshot. */
    size_t compactEveryRecords = 256;
    /** When non-empty, every compaction also persists the snapshot
     *  here via the atomic temp-file + rename path. */
    std::string snapshotPath;
};

struct RecoveryStats
{
    uint64_t crashes = 0;
    uint64_t hangs = 0;
    uint64_t restarts = 0;
    uint64_t heartbeatsMissed = 0;

    uint64_t journalAppends = 0;
    uint64_t compactions = 0;
    uint64_t tornTailBytes = 0;     ///< journal bytes lost to tearing

    uint64_t replayedRecords = 0;
    uint64_t replayedCreditCommits = 0;
    uint64_t replayedTransitions = 0;
    /** Replayed credit dropped because the kernel's surviving module
     *  map says its range is retired — the torn-journal defense. */
    uint64_t replayReconciledDrops = 0;
    uint64_t requeuedVerdicts = 0;
    uint64_t dedupSuppressed = 0;   ///< double-delivery prevented
    uint64_t creditDroppedCold = 0; ///< ColdRestart discarded commits

    uint64_t gapEndpoints = 0;      ///< endpoints that fired into a gap
    uint64_t downtimeCycles = 0;    ///< virtual cycles checker was down
    uint64_t frozenCycles = 0;      ///< FailClosed modeled freeze cost
    uint64_t catchUpChecks = 0;
    uint64_t catchUpViolations = 0;
    uint64_t forcedSlowWindows = 0;

    uint64_t snapshotBytes = 0;     ///< last serialized snapshot size
    uint64_t journalBytes = 0;      ///< journal size at last compact
};

/**
 * Implements the service's RecoveryHooks seam and subscribes to the
 * kernel's code events (module churn must reach the journal so
 * replay never restores credit onto retired ranges).
 */
class RecoverySupervisor : public runtime::RecoveryHooks,
                           public cpu::CodeEventSink
{
  public:
    explicit RecoverySupervisor(RecoveryConfig config = {});

    /** Wires the supervisor into the service (setRecoveryHooks). */
    void attach(runtime::ProtectionService &service);

    /** Crash/hang/torn-journal faults come from the same injector
     *  the rest of the control plane uses. Optional. */
    void setFaultInjector(trace::FaultInjector &faults)
    {
        _faults = &faults;
    }

    /**
     * Wires the observability layer. On checker death the supervisor
     * emits a CheckerCrash instant and dumps every process's flight
     * recorder (re-emitted through the sink and kept in crashDumps()
     * for post-mortem triage — the volatile ring is the black box of
     * the crash); restart emits a CheckerRestart instant, and every
     * ProtectionGap report is stamped with the process's flight
     * snapshot. Optional.
     */
    void setTelemetry(telemetry::Telemetry *telemetry)
    {
        _telemetry = telemetry;
    }

    /** Per-process flight-recorder dumps captured at the most recent
     *  checker crash (empty when no telemetry hub is attached). */
    const std::map<uint64_t, std::vector<telemetry::FlightEvent>> &
    crashDumps() const
    {
        return _crashDumps;
    }

    /**
     * Registers a protected process with the recovery layer. Hooks
     * the monitor's commit observer (journaling each commit's delta),
     * takes `itc` and the monitor's path index as the overlay a crash
     * clears, and opens the process's ledger account at the CPU's
     * current instruction count. `dyn`, when given, is the process's dynamic
     * guard: its module map is kernel-side truth that survives a
     * crash, and warm restart reconciles replayed credit against it
     * (a torn journal tail can be missing the final unload record).
     */
    void addProcess(uint64_t cr3, runtime::Monitor &monitor,
                    analysis::ItcCfg &itc, cpu::Cpu &cpu,
                    const dynamic::DynamicGuard *dyn = nullptr);

    // --- RecoveryHooks ------------------------------------------------------
    Gate gateEndpoint(uint64_t cr3, uint64_t seq,
                      uint64_t now) override;
    Gate gateDrain(uint64_t now) override;
    bool checkerDown() const override
    {
        return _state == State::Dead;
    }
    void noteWindow(uint64_t cr3, uint64_t seq,
                    runtime::ProtectionWindowClass cls) override;
    void noteVerdictCommitted(
        const runtime::ViolationReport &report) override;
    void noteVerdictDelivered(uint64_t cr3, uint64_t seq) override;

    // --- CodeEventSink ------------------------------------------------------
    void onCodeEvent(const cpu::CodeEvent &event) override;

    /** Serializes the live fold (re-folded first if the journal was
     *  edited, not just appended to) and clears the journal. Virtual
     *  so a test can hold each compaction to a reference fold. */
    virtual void compactNow();

    bool checkerAlive() const { return _state == State::Alive; }

    const RecoveryStats &stats() const { return _stats; }
    const GapLedger &ledger() const { return _ledger; }
    GapLedger &ledger() { return _ledger; }
    /** ProtectionGap and catch-up audit reports. */
    const std::vector<runtime::ViolationReport> &reports() const
    {
        return _reports;
    }
    const StateJournal &journal() const { return _journal; }
    StateJournal &journal() { return _journal; }
    const std::vector<uint8_t> &snapshotBytes() const
    {
        return _snapshot;
    }
    /** Width (virtual cycles) of every closed protection gap. */
    const Distribution &gapWidths() const { return _gapWidths; }

  private:
    enum class State : uint8_t { Alive, Dead };

    struct ProcessRefs
    {
        runtime::Monitor *monitor = nullptr;
        analysis::ItcCfg *itc = nullptr;
        cpu::Cpu *cpu = nullptr;
        const dynamic::DynamicGuard *dyn = nullptr;
        /** Gap bookkeeping for the current outage. */
        uint64_t gapStartInst = 0;
        uint64_t gapStartSeq = 0;
        bool inGap = false;
    };

    /** Fires any injector-scheduled crash/hang whose cycle arrived. */
    void advance(uint64_t now);
    void crash(uint64_t now, bool hang);
    void restart(uint64_t now);
    void journalAppend(const JournalRecord &record);
    /** fold(snapshot + the journal's intact prefix); `tail` gets the read. */
    RecoveredState foldDurable(JournalReadResult &tail) const;
    void emitGapReports(uint64_t now);
    /** Files process `cr3`'s ProtectionGap report, ending its gap. */
    void closeGap(uint64_t cr3, ProcessRefs &proc, std::string reason);

    RecoveryConfig _config;
    runtime::ProtectionService *_service = nullptr;
    trace::FaultInjector *_faults = nullptr;
    telemetry::Telemetry *_telemetry = nullptr;
    std::map<uint64_t, std::vector<telemetry::FlightEvent>> _crashDumps;
    std::map<uint64_t, ProcessRefs> _procs;

    StateJournal _journal;
    std::vector<uint8_t> _snapshot;
    /** fold(snapshot + journal), kept as records are appended. Valid
     *  while _liveEdits matches the journal's edit count. */
    RecoveredState _live;
    uint64_t _liveEdits = 0;
    GapLedger _ledger;
    std::vector<runtime::ViolationReport> _reports;
    RecoveryStats _stats;
    Distribution _gapWidths;

    State _state = State::Alive;
    uint64_t _downAt = 0;
    uint64_t _detectAt = 0;
    uint64_t _restartAt = 0;
    bool _crashFired = false;   ///< one-shot: injector crash consumed
    bool _hangFired = false;
};

} // namespace flowguard::recovery

#endif // FLOWGUARD_RECOVERY_SUPERVISOR_HH

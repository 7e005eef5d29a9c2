/**
 * @file
 * Monitor — the hybrid flow-checking engine (§3.2, §5.3): fast path
 * first; suspicious windows escalate to the slow path; negative slow
 * path verdicts are cached back into the ITC-CFG credits so the same
 * window passes the fast path next time (§7.1.1).
 */

#ifndef FLOWGUARD_RUNTIME_MONITOR_HH
#define FLOWGUARD_RUNTIME_MONITOR_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/itc_cfg.hh"
#include "analysis/typearmor.hh"
#include "dynamic/dynamic_guard.hh"
#include "runtime/fast_path.hh"
#include "runtime/report.hh"
#include "runtime/slow_path.hh"

namespace flowguard::runtime {

/**
 * What the monitor does when the window under check lost trace
 * (hardware OVF or undecodable bytes) — §7.1.2 degraded modes. Loss
 * is not an attack by itself, but an attacker who can provoke it
 * (e.g. by flooding the trace) could hide a hijack inside the gap,
 * so the choice is a real security/availability trade-off.
 */
enum class LossPolicy : uint8_t {
    /** Any loss in a checked window is treated as a violation: the
     *  process dies. No attack hides in a gap, but a noisy trace
     *  kills benign processes. */
    FailClosed,
    /** Loss forces a slow-path check of the surviving windows and its
     *  verdict is authoritative — the fast decode of a damaged buffer
     *  is trusted neither to pass nor to convict. The default. */
    EscalateSlowPath,
    /** Audit only: loss is counted and the verdict computed from
     *  whatever survived. For measurement, not protection. */
    LogAndPass,
};

struct MonitorConfig
{
    FastPathConfig fastPath;
    /** Label slow-path-approved transitions as high credit. */
    bool cacheSlowPathVerdicts = true;
    /** Degradation policy for windows with trace loss. */
    LossPolicy lossPolicy = LossPolicy::EscalateSlowPath;
    /**
     * Apply the verdict cache as soon as the slow path vouches for a
     * window (the single-process §7.1.1 behavior). The protection
     * service clears this and commits explicitly, because a verdict
     * that timed out or was deferred must never earn durable credit —
     * the same rule lossy windows already follow.
     */
    bool autoCommitCache = true;
};

struct MonitorStats
{
    uint64_t checks = 0;
    uint64_t fastPass = 0;
    uint64_t fastViolations = 0;    ///< convicted on the fast path
    uint64_t escalations = 0;       ///< windows sent to the slow path
    uint64_t slowChecks = 0;
    uint64_t slowPass = 0;
    uint64_t slowViolations = 0;    ///< convicted on the slow path
    uint64_t violations = 0;
    uint64_t tipsChecked = 0;
    uint64_t edgesChecked = 0;
    uint64_t highCreditEdges = 0;

    // Trace-loss accounting across all checked windows.
    uint64_t lossWindows = 0;       ///< checks that saw any loss
    uint64_t overflows = 0;         ///< hardware OVF packets
    uint64_t resyncs = 0;           ///< skip-to-PSB recoveries
    uint64_t bytesSkipped = 0;      ///< undecodable bytes dropped
    uint64_t lossEscalations = 0;   ///< EscalateSlowPath upcalls
    uint64_t lossViolations = 0;    ///< FailClosed convictions
    uint64_t lossAccepted = 0;      ///< LogAndPass waves-through

    // Dynamic-code accounting (zero without an attached guard).
    uint64_t unknownCodeTips = 0;   ///< AuditOnly-waived transitions
    uint64_t jitWaivedTips = 0;     ///< Allowlist-waived JIT hits
    uint64_t jitDegradedChecks = 0; ///< slow checks degraded by JIT
    uint64_t staleViolations = 0;   ///< stale-range convictions
    uint64_t stagedInvalidated = 0; ///< staged cache entries dropped

    /** Fraction of checks resolved without the slow path. */
    double
    fastPathRate() const
    {
        return checks == 0
            ? 1.0
            : static_cast<double>(checks - slowChecks) /
              static_cast<double>(checks);
    }

    /** Observed high-credit edge ratio across all checks. */
    double
    credRatio() const
    {
        return edgesChecked == 0
            ? 1.0
            : static_cast<double>(highCreditEdges) /
              static_cast<double>(edgesChecked);
    }

    /**
     * Verifies the accounting identities these counters promise:
     *
     *   checks      == fastPass + fastViolations + lossViolations
     *                  + escalations
     *   violations  == fastViolations + slowViolations
     *                  + lossViolations
     *   slowChecks  == slowPass + slowViolations   (note: audit and
     *                  PMI-storm requests run slowPhase with no
     *                  preceding fastPhase, so slowChecks may exceed
     *                  escalations — only the partition holds)
     *   lossWindows == lossViolations + lossEscalations
     *                  + lossAccepted
     *   highCreditEdges <= edgesChecked
     *   lossEscalations <= escalations
     *
     * Returns false and describes the first broken identity in
     * `why` (when given). Called from tests and from the service
     * drain loop.
     */
    bool checkInvariants(std::string *why = nullptr) const;
};

class Monitor
{
  public:
    /** `paths` (optional) enables path-sensitive fast checking;
     *  verdict caching also feeds it. */
    Monitor(const isa::Program &program, analysis::ItcCfg &itc,
            const analysis::Cfg &ocfg,
            const analysis::TypeArmorInfo &typearmor,
            MonitorConfig config = {},
            cpu::CycleAccount *account = nullptr,
            analysis::PathIndex *paths = nullptr);

    /**
     * A check, split in two phases: the fast path always runs inline
     * (it is cheap and bounded) over a ToPA window — the live ring
     * (Topa::streamView(), whose decode the fast checker keeps across
     * checks) — while a slow-path escalation becomes
     * schedulable work that a CheckScheduler can queue, deadline and
     * defer. A fast pass allocates nothing once the checker's scratch
     * has grown.
     */
    struct FastPhaseOutcome
    {
        /** Resolved verdict; meaningless when `needSlow`. */
        CheckVerdict verdict = CheckVerdict::Pass;
        /** True when the window needs a slow-path resolution. */
        bool needSlow = false;
        /** The window saw trace loss (propagates into slowPhase). */
        bool loss = false;
    };

    /**
     * The fast phase over at least `pkt_count` TIPs: pktCount() at an
     * endpoint (§7.1.1), widened by the service under backpressure;
     * SIZE_MAX for everything in the buffer — the §5.2 PMI window,
     * which is about to be overwritten, and the code barrier.
     */
    FastPhaseOutcome fastPhase(const trace::StreamView &window,
                               size_t pkt_count);

    /** fastPhase() of bytes that stand alone (stream identity 0). */
    FastPhaseOutcome
    fastPhase(std::span<const uint8_t> packets, size_t pkt_count)
    {
        return fastPhase(trace::StreamView{packets}, pkt_count);
    }

    /**
     * Resolves a window fastPhase escalated: the live ring (whose
     * decode and walk the slow checker keeps across checks) or a copy
     * that stands alone. `loss` must be the flag fastPhase returned for
     * the same packets. Drops any stage still pending, then, on a
     * pass, stages the window the slow path walked per the config;
     * commits it only under autoCommitCache.
     */
    CheckVerdict slowPhase(const trace::StreamView &window, bool loss);

    /** slowPhase() of bytes that stand alone (stream identity 0). */
    CheckVerdict
    slowPhase(std::span<const uint8_t> packets, bool loss)
    {
        return slowPhase(trace::StreamView{packets}, loss);
    }

    /**
     * Applies the staged verdict cache from the last slow-path pass
     * (no-op when nothing is staged). The caller asserts the verdict
     * arrived in time and undeferred; timed-out or deferred windows
     * must call discardCache() instead.
     *
     * A commit walks the staged transitions once and learns each
     * (edge, TNT) pair into the ITC-CFG's runtime overlay, and each
     * n-gram of the staged targets into the path index. What either
     * did not hold yet is the commit's delta; only a non-empty delta
     * reaches the commit observer. Allocates nothing once its scratch
     * has grown, unless the delta is non-empty.
     */
    void commitCache();

    /** Drops the staged verdict cache without applying it. */
    void discardCache();

    /** The transitions the last slow-path pass staged, until
     *  commitCache() or discardCache(). */
    std::span<const decode::TransitionView> staged() const
    {
        return _staged;
    }

    /**
     * What one commitCache() added: the (edge, TNT) pairs the runtime
     * overlay did not hold, in staged order, and the n-gram hashes the
     * path index did not hold, in first-seen order. The views are
     * valid during the observer call only.
     */
    struct CreditDelta
    {
        std::span<const decode::TransitionView> pairs;
        std::span<const uint64_t> paths;
    };

    /**
     * Warm-restart path: learns journaled deltas into the runtime
     * overlay without staging and without notifying the commit
     * observer, since the journal already holds them. Pairs whose
     * edge left the graph are skipped.
     */
    void replayCommit(const CreditDelta &delta);

    /**
     * Observes every commitCache() whose delta is non-empty, after it
     * landed in the overlay. The recovery journal uses this to make
     * committed runtime credit durable: what the observer saw is
     * exactly what a warm restart replays.
     */
    using CommitObserver = std::function<void(const CreditDelta &)>;

    void setCommitObserver(CommitObserver observer)
    {
        _commitObserver = std::move(observer);
    }

    /**
     * Forces the next check's window through the slow path even if
     * the fast path would pass it. The recovery supervisor arms this
     * on the first post-resync endpoint: credit state just replayed
     * from a journal is trusted to *accelerate* checks again only
     * after one authoritative slow-path verdict. One-shot.
     */
    void forceSlowNext() { _forceSlowNext = true; }

    /** True while a slow-path pass has uncommitted cache material. */
    bool cachePending() const { return _cachePending; }

    /** The configured endpoint window (FastPathConfig::pktCount). */
    size_t pktCount() const { return _config.fastPath.pktCount; }

    const MonitorStats &stats() const { return _stats; }
    const SlowPathResult &lastSlow() const { return _lastSlow; }

    /** The path index checks and commits use (null: path-insensitive). */
    analysis::PathIndex *paths() const { return _paths; }

    /**
     * The report for the most recent Violation verdict — the one
     * place a verdict becomes (kind, from, to, reason):
     *
     *  - fail-closed loss conviction: TraceLoss, no edge,
     *    "trace loss (fail-closed policy)";
     *  - fast-path conviction: the offending edge and "fast path:
     *    ITC-CFG edge mismatch", or the stale-range reason when the
     *    edge entered an unloaded module;
     *  - slow-path conviction: the offending branch and "slow path: "
     *    followed by the slow checker's reason.
     *
     * Callers append their context suffix (" [deferred N cycles]",
     * " [post-mortem: drain]", ...) and the flight snapshot.
     * Meaningless unless the last verdict was a Violation.
     */
    ViolationReport violationReport(uint64_t cr3, uint64_t seq,
                                    int64_t syscall) const;

    /**
     * Wires the dynamic-code subsystem in: both checkers classify
     * TIPs through the guard's module map, and the guard gains an
     * invalidation hook that drops staged verdict-cache entries
     * touching an unloaded/rebased range. `guard` must outlive the
     * monitor.
     */
    void attachDynamic(dynamic::DynamicGuard &guard);

    /**
     * Drops staged cache transitions with an endpoint in
     * [begin, end); returns how many were dropped. Called by the
     * DynamicGuard via the invalidation hook.
     */
    size_t invalidateStaged(uint64_t begin, uint64_t end);

    /**
     * One byte per finally-resolved check (the CheckVerdict value) —
     * the byte-identical stream the ASLR property test compares
     * across layouts.
     */
    const std::vector<uint8_t> &verdictLog() const
    {
        return _verdictLog;
    }

    /** Unknown-code transitions waived since the last consume (the
     *  kernel turns these into UnknownCode audit reports). */
    uint64_t consumeUnknownAudit();

    /**
     * Wires the observability layer in: both checkers emit
     * check/decode spans, convictions emit Violation instants
     * carrying the offending edge, and commitCache() emits a
     * CreditCommit instant carrying its delta (a = new pairs, b = new
     * n-grams) — all attributed to process `cr3`. nullptr detaches.
     */
    void setTelemetry(telemetry::Telemetry *telemetry, uint64_t cr3);

    telemetry::Telemetry *telemetry() const { return _telemetry; }

  private:
    /** Stages the window the last slow-path pass decoded and walked. */
    void stageCache();

    /** Which engine produced the most recent verdict. */
    enum class VerdictSource : uint8_t {
        FastPath,
        SlowPath,
        LossPolicy,     ///< fail-closed conviction, no flow evidence
    };

    analysis::ItcCfg &_itc;
    MonitorConfig _config;
    analysis::PathIndex *_paths;
    FastPathChecker _fast;
    SlowPathChecker _slow;
    MonitorStats _stats;
    FastPathResult _lastFast;
    SlowPathResult _lastSlow;
    VerdictSource _lastSource = VerdictSource::FastPath;

    /** Staged (uncommitted) verdict-cache material: the transitions of
     *  the slow path's window, read in place from its cursor (they
     *  slice its decode's TNT pool), or from _stagedCopy once an
     *  invalidation dropped some of them. */
    std::span<const decode::TransitionView> _staged;
    std::vector<decode::TransitionView> _stagedCopy;
    bool _cachePending = false;
    /** Commit scratch: a table of the first copy of each staged pair
     *  (index + 1, 0 = empty), the staged targets and the delta. */
    std::vector<uint32_t> _firstCopies;
    std::vector<uint64_t> _stagedTargets;
    std::vector<decode::TransitionView> _deltaPairs;
    std::vector<uint64_t> _deltaPaths;
    CommitObserver _commitObserver;
    bool _forceSlowNext = false;

    std::vector<uint8_t> _verdictLog;
    uint64_t _pendingUnknownAudit = 0;
    telemetry::Telemetry *_telemetry = nullptr;
    uint64_t _telemetryCr3 = 0;
};

/**
 * Publishes a MonitorStats into a MetricRegistry as a live source:
 * every collect() re-reads the struct, so the registry mirrors the
 * monitor without the monitor changing its API. Names are
 * "<prefix>.checks", "<prefix>.fast_pass", ... The struct must
 * outlive the registry.
 */
void registerMonitorMetrics(telemetry::MetricRegistry &registry,
                            const MonitorStats &stats,
                            const std::string &prefix);

} // namespace flowguard::runtime

#endif // FLOWGUARD_RUNTIME_MONITOR_HH

/**
 * @file
 * CheckScheduler — a bounded slow-path work queue with cycle-budget
 * deadlines and overload policies.
 *
 * The paper's slow path is an unbounded synchronous upcall: a burst
 * of suspicious windows stalls every endpoint behind a full decode.
 * At service scale that is an availability hazard — and an attacker
 * who can provoke escalations (e.g. by flooding low-credit paths)
 * could wedge the whole machine. The scheduler makes the trade-off
 * explicit, mirroring LossPolicy:
 *
 *  - One virtual checking core works through escalations in FIFO
 *    order. Virtual time is the machine's retired-instruction clock;
 *    each check occupies the core for its modeled cycle cost.
 *  - A check whose queue wait + execution exceeds `deadlineCycles`
 *    yields a Timeout verdict, resolved by the OverloadPolicy:
 *    FailClosed convicts (availability sacrificed), DeferAndRecheck
 *    lets the syscall proceed and delivers the verdict late (bounded
 *    memory, guaranteed eventual enforcement), AuditOnly waives
 *    enforcement but still logs what the verdict would have been.
 *  - The queue is bounded. Audit-class work is shed first; an
 *    enforcement check is never dropped — a full queue force-runs
 *    its oldest item instead (backpressure blocks, it does not
 *    discard). Every shed is counted; the accounting identity
 *    submitted = resolved + shed + dropped + pending always holds.
 *  - Depth or deferred-age above the high watermarks raises the
 *    batch factor (the service widens pkt_count windows and
 *    coalesces endpoint checks); pressure easing decays it.
 */

#ifndef FLOWGUARD_RUNTIME_SCHEDULER_HH
#define FLOWGUARD_RUNTIME_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "runtime/monitor.hh"
#include "support/stats.hh"

namespace flowguard::runtime {

/**
 * What the service does with a check that exceeded its deadline —
 * the §7.1.2-style security/availability trade-off, control-plane
 * edition.
 */
enum class OverloadPolicy : uint8_t {
    /** A verdict we cannot wait for is treated as a violation: the
     *  process dies. No attack outruns the checker, but overload
     *  kills benign processes. */
    FailClosed,
    /** The syscall proceeds; the check is queued and its verdict is
     *  delivered at the process's next controllable boundary.
     *  Detection is guaranteed but possibly late. The default. */
    DeferAndRecheck,
    /** Enforcement is waived; the verdict is still computed and
     *  logged. Full availability, zero enforcement under overload —
     *  for measurement, not protection. */
    AuditOnly,
};

const char *overloadPolicyName(OverloadPolicy policy);

/**
 * One slow-path escalation. Its window views the live ToPA ring while
 * the check runs within submit(); a request that is queued keeps its
 * own copy of the bytes (CheckScheduler copies them as it enqueues),
 * so only deferred work pays for a copy. The copy keeps the window's
 * stream offset but no stream identity: it stands alone.
 */
struct CheckRequest
{
    uint64_t cr3 = 0;
    uint64_t seq = 0;           ///< endpoint sequence in that process
    int64_t syscall = 0;
    bool loss = false;          ///< window had trace loss
    bool audit = false;         ///< audit-class: sheddable first
    /** The window: the ring at submit, or `owned` once queued. */
    trace::StreamView window;
    std::vector<uint8_t> owned;
    uint64_t enqueuedAt = 0;    ///< virtual cycles at submit
    uint32_t attempts = 0;      ///< executor invocations so far
};

/** Result of one executor invocation (slow phase, no cache commit). */
struct CheckExecution
{
    bool ran = false;           ///< false: abandoned before execution
    CheckVerdict verdict = CheckVerdict::Suspicious;
    uint64_t costCycles = 0;
    /** Monitor::violationReport of the run; filled only when the
     *  verdict is Violation (no flight snapshot — the service stamps
     *  that when it files the report). */
    ViolationReport report;
};

/** How a submitted check left the scheduler. */
enum class CheckResolution : uint8_t {
    InlinePass,         ///< completed within deadline, negative
    InlineViolation,    ///< completed within deadline, positive
    TimeoutConviction,  ///< FailClosed: deadline exceeded, convict
    AuditWaived,        ///< AuditOnly: deadline exceeded, logged only
    Deferred,           ///< DeferAndRecheck: queued, verdict later
    Shed,               ///< audit-class work dropped (counted)
};

struct SchedulerConfig
{
    OverloadPolicy policy = OverloadPolicy::DeferAndRecheck;
    /** Deferred-queue bound. */
    size_t queueCapacity = 32;
    /** Budget (wait + execution) before a check is a Timeout. */
    uint64_t deadlineCycles = 2'000'000;
    /** Queue depth above which batching rises and audit work sheds. */
    size_t depthHighWatermark = 8;
};

/** Upper bound on the adaptive batch factor. */
inline constexpr size_t max_batch_factor = 8;

struct SchedulerStats
{
    uint64_t submitted = 0;
    uint64_t inlinePass = 0;
    uint64_t inlineViolations = 0;
    uint64_t timeoutConvictions = 0;
    uint64_t auditWaived = 0;
    uint64_t deferred = 0;           ///< entered the deferred queue
    uint64_t deferredDelivered = 0;  ///< left it with a verdict
    uint64_t forcedRuns = 0;         ///< queue-full blocking deliveries
    uint64_t shedAudit = 0;
    uint64_t droppedQuarantined = 0; ///< dropped with their process
    uint64_t lostToCrash = 0;        ///< wiped by a checker crash
    uint64_t timeouts = 0;           ///< deadline misses, any policy
    uint64_t batchRaises = 0;
    size_t maxQueueDepth = 0;
    /** Verdict-availability latency of deferred checks (cycles). */
    Distribution deferralAges;

    /**
     * The no-silent-drop identity: every submitted check is resolved
     * inline, convicted, waived, delivered late, shed (counted),
     * dropped with a quarantined process, or wiped by a checker
     * crash (counted, so the loss is auditable) — or still pending.
     */
    bool
    balances(size_t pending) const
    {
        return submitted == inlinePass + inlineViolations +
            timeoutConvictions + auditWaived + deferredDelivered +
            shedAudit + droppedQuarantined + lostToCrash + pending;
    }

    /**
     * balances() plus the per-counter identities the queue mechanics
     * imply:
     *
     *   timeouts          == timeoutConvictions + auditWaived
     *                        + deferred
     *   deferredDelivered <= deferred
     *   forcedRuns        <= deferredDelivered
     *   deferredDelivered == deferralAges.count()
     *   maxQueueDepth     >= pending
     *
     * Every deadline miss resolves to exactly one of {conviction,
     * waiver, deferral}, deliveries never exceed enqueues, forced
     * (queue-full) deliveries are deliveries, each delivery records
     * its age, and the depth high-water mark covers the live queue.
     * Returns false and describes the first broken identity in `why`
     * (when given).
     */
    bool checkInvariants(size_t pending,
                         std::string *why = nullptr) const;
};

class CheckScheduler
{
  public:
    /** Runs the slow phase over a request. Must NOT commit the
     *  monitor's verdict cache — the scheduler owns that decision. */
    using Executor =
        std::function<CheckExecution(const CheckRequest &)>;
    /** Commit (true) or discard (false) the cache an executor run
     *  staged. Only inline in-deadline passes ever commit. */
    using CacheDecision =
        std::function<void(const CheckRequest &, bool commit)>;
    /** A deferred verdict lands: `age` is enqueue-to-verdict cycles. */
    using Delivery = std::function<void(
        const CheckRequest &, const CheckExecution &, uint64_t age)>;

    CheckScheduler(SchedulerConfig config, Executor execute,
                   CacheDecision cache, Delivery deliver);

    struct SubmitOutcome
    {
        CheckResolution resolution = CheckResolution::InlinePass;
        /** Valid whenever `exec.ran`. */
        CheckExecution exec;
    };

    /**
     * Submits one escalation at virtual time `now`; delivers any
     * deferred verdicts that became available first.
     */
    SubmitOutcome submit(CheckRequest request, uint64_t now);

    /** Delivers deferred verdicts whose completion time has passed. */
    void pump(uint64_t now);

    /** Runs and delivers everything still queued (end of run). */
    void drain(uint64_t now);

    /** Drops queued work of a quarantined process (counted). */
    void dropProcess(uint64_t cr3);

    /**
     * A checker crash wipes the in-memory queue. Every pending item
     * is counted into lostToCrash — the identity still balances, and
     * the count is what the recovery supervisor folds into its
     * protection-gap report. The checking core's busy time is also
     * reset (the core died with the queue). Returns items wiped.
     */
    size_t dropAllForCrash();

    /** Current adaptive batch factor (1 = no batching). */
    size_t batchFactor() const { return _batchFactor; }

    size_t depth() const { return _queue.size(); }

    /** Oldest queued item's age at `now`, 0 when empty. */
    uint64_t oldestAge(uint64_t now) const;

    const SchedulerStats &stats() const { return _stats; }

    /** The accounting identity, evaluated against the live queue. */
    bool accountingBalances() const
    {
        return _stats.balances(_queue.size());
    }

  private:
    struct DeferredItem
    {
        CheckRequest request;
        CheckExecution exec;        ///< valid once `executed`
        bool executed = false;
        uint64_t completionAt = 0;  ///< valid once `executed`
    };

    CheckExecution runNow(CheckRequest &request);
    void enqueueDeferred(CheckRequest request, CheckExecution exec,
                         bool executed, uint64_t completion_at,
                         uint64_t now);
    void deliverHead(uint64_t now, bool forced);
    bool shedOneAudit();
    void updateBackpressure(uint64_t now);

    SchedulerConfig _config;
    Executor _execute;
    CacheDecision _cache;
    Delivery _deliver;

    std::deque<DeferredItem> _queue;
    /** Virtual time at which the checking core is next free. */
    uint64_t _freeAt = 0;
    size_t _batchFactor = 1;
    SchedulerStats _stats;
};

} // namespace flowguard::runtime

#endif // FLOWGUARD_RUNTIME_SCHEDULER_HH

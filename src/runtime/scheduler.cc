#include "runtime/scheduler.hh"

#include <algorithm>

#include "support/logging.hh"

namespace flowguard::runtime {

namespace {

/** Deferred age (cycles) that raises backpressure like a deep queue. */
constexpr uint64_t age_high_watermark_cycles = 8'000'000;

} // namespace

const char *
overloadPolicyName(OverloadPolicy policy)
{
    switch (policy) {
      case OverloadPolicy::FailClosed: return "fail-closed";
      case OverloadPolicy::DeferAndRecheck: return "defer-recheck";
      case OverloadPolicy::AuditOnly: return "audit-only";
    }
    return "?";
}

bool
SchedulerStats::checkInvariants(size_t pending, std::string *why)
    const
{
    auto fail = [&](const char *what) {
        if (why)
            *why = what;
        return false;
    };
    if (!balances(pending))
        return fail("submitted != inlinePass + inlineViolations + "
                    "timeoutConvictions + auditWaived + "
                    "deferredDelivered + shedAudit + "
                    "droppedQuarantined + lostToCrash + pending");
    if (timeouts != timeoutConvictions + auditWaived + deferred)
        return fail("timeouts != timeoutConvictions + auditWaived + "
                    "deferred");
    if (deferredDelivered > deferred)
        return fail("deferredDelivered > deferred");
    if (forcedRuns > deferredDelivered)
        return fail("forcedRuns > deferredDelivered");
    if (deferredDelivered != deferralAges.count())
        return fail("deferredDelivered != deferralAges.count()");
    if (maxQueueDepth < pending)
        return fail("maxQueueDepth < live queue depth");
    return true;
}

CheckScheduler::CheckScheduler(SchedulerConfig config, Executor execute,
                               CacheDecision cache, Delivery deliver)
    : _config(config), _execute(std::move(execute)),
      _cache(std::move(cache)), _deliver(std::move(deliver))
{
    fg_assert(_config.queueCapacity > 0, "queue capacity must be > 0");
    fg_assert(_config.maxBatchFactor >= 1, "batch factor floor is 1");
}

uint64_t
CheckScheduler::oldestAge(uint64_t now) const
{
    if (_queue.empty())
        return 0;
    const uint64_t enqueued = _queue.front().request.enqueuedAt;
    return now > enqueued ? now - enqueued : 0;
}

CheckExecution
CheckScheduler::runNow(CheckRequest &request)
{
    ++request.attempts;
    CheckExecution exec = _execute(request);
    exec.ran = true;
    return exec;
}

CheckScheduler::SubmitOutcome
CheckScheduler::submit(CheckRequest request, uint64_t now)
{
    pump(now);
    ++_stats.submitted;
    request.enqueuedAt = now;
    SubmitOutcome outcome;

    // Admission control: audit-class work is shed outright when the
    // queue is full — it never displaces enforcement work.
    if (request.audit && _queue.size() >= _config.queueCapacity) {
        ++_stats.shedAudit;
        outcome.resolution = CheckResolution::Shed;
        updateBackpressure(now);
        return outcome;
    }

    const uint64_t start = std::max(now, _freeAt);
    const uint64_t wait = start - now;

    if (wait > _config.deadlineCycles) {
        // The backlog alone exceeds the deadline: the check is a
        // Timeout before it could even start.
        ++_stats.timeouts;
        switch (_config.policy) {
          case OverloadPolicy::FailClosed:
            // The conviction needs no verdict; don't burn the core.
            ++_stats.timeoutConvictions;
            outcome.resolution = CheckResolution::TimeoutConviction;
            break;
          case OverloadPolicy::AuditOnly:
            // Enforcement is waived but the log still wants the
            // verdict; the audit run occupies the core like any other.
            outcome.exec = runNow(request);
            _cache(request, false);
            _freeAt = start + outcome.exec.costCycles;
            ++_stats.auditWaived;
            outcome.resolution = CheckResolution::AuditWaived;
            break;
          case OverloadPolicy::DeferAndRecheck:
            // Queued unexecuted; the delivery-time recheck computes
            // the verdict once the core works its way there.
            enqueueDeferred(std::move(request), CheckExecution{},
                            /*executed=*/false, /*completion_at=*/0,
                            now);
            outcome.resolution = CheckResolution::Deferred;
            break;
        }
        updateBackpressure(now);
        return outcome;
    }

    CheckExecution exec = runNow(request);
    const uint64_t completion = start + exec.costCycles;
    if (completion - now <= _config.deadlineCycles) {
        // In time: the only path on which a verdict may be cached.
        _freeAt = completion;
        const bool pass = exec.verdict != CheckVerdict::Violation;
        _cache(request, pass);
        if (pass) {
            ++_stats.inlinePass;
            outcome.resolution = CheckResolution::InlinePass;
        } else {
            ++_stats.inlineViolations;
            outcome.resolution = CheckResolution::InlineViolation;
        }
        outcome.exec = std::move(exec);
        updateBackpressure(now);
        return outcome;
    }

    // Ran but finished past the deadline.
    ++_stats.timeouts;
    _cache(request, false);
    switch (_config.policy) {
      case OverloadPolicy::FailClosed:
        // The core abandons the check at the deadline.
        _freeAt = start + _config.deadlineCycles;
        ++_stats.timeoutConvictions;
        outcome.resolution = CheckResolution::TimeoutConviction;
        outcome.exec = std::move(exec);
        break;
      case OverloadPolicy::AuditOnly:
        _freeAt = completion;
        ++_stats.auditWaived;
        outcome.resolution = CheckResolution::AuditWaived;
        outcome.exec = std::move(exec);
        break;
      case OverloadPolicy::DeferAndRecheck:
        // The verdict exists but arrived late; enforcement is
        // deferred to the process's next controllable boundary.
        _freeAt = completion;
        enqueueDeferred(std::move(request), std::move(exec),
                        /*executed=*/true, completion, now);
        outcome.resolution = CheckResolution::Deferred;
        break;
    }
    updateBackpressure(now);
    return outcome;
}

void
CheckScheduler::enqueueDeferred(CheckRequest request,
                                CheckExecution exec, bool executed,
                                uint64_t completion_at, uint64_t now)
{
    if (_queue.size() >= _config.queueCapacity) {
        // Enforcement is never dropped: make room by shedding audit
        // work, else block on the oldest item (force-run to verdict).
        if (!shedOneAudit())
            deliverHead(now, /*forced=*/true);
    }
    DeferredItem item;
    item.request = std::move(request);
    item.exec = std::move(exec);
    item.executed = executed;
    item.completionAt = completion_at;
    _queue.push_back(std::move(item));
    // The one copy of a window: the ring moves on before this request
    // runs or is delivered. The deque never moves what it holds, so
    // the view stays on the copy. The copy is no longer the live
    // stream (identity 0), but its bytes still start where the
    // window's did, so a window cut mid-stream is decoded as one.
    CheckRequest &queued = _queue.back().request;
    queued.owned.assign(queued.window.bytes.begin(),
                        queued.window.bytes.end());
    queued.window = {queued.owned, queued.window.offset, 0};
    ++_stats.deferred;
    _stats.maxQueueDepth =
        std::max(_stats.maxQueueDepth, _queue.size());
}

void
CheckScheduler::deliverHead(uint64_t now, bool forced)
{
    fg_assert(!_queue.empty(), "deliverHead on empty queue");
    DeferredItem item = std::move(_queue.front());
    _queue.pop_front();
    if (!item.executed) {
        // Delivery-time recheck: the verdict was never computed.
        const uint64_t start = std::max(now, _freeAt);
        item.exec = runNow(item.request);
        _cache(item.request, false);    // deferred never caches
        item.completionAt = start + item.exec.costCycles;
        _freeAt = item.completionAt;
        item.executed = true;
    }
    const uint64_t age =
        item.completionAt > item.request.enqueuedAt
        ? item.completionAt - item.request.enqueuedAt
        : 0;
    ++_stats.deferredDelivered;
    if (forced)
        ++_stats.forcedRuns;
    _stats.deferralAges.add(static_cast<double>(age));
    _deliver(item.request, item.exec, age);
}

void
CheckScheduler::pump(uint64_t now)
{
    while (!_queue.empty()) {
        DeferredItem &head = _queue.front();
        if (!head.executed) {
            // The core backfills queued work while the application
            // runs: it could have started this item as soon as it was
            // both free and enqueued.
            const uint64_t start =
                std::max(_freeAt, head.request.enqueuedAt);
            if (start > now)
                break;          // core still busy in virtual time
            head.exec = runNow(head.request);
            _cache(head.request, false);
            head.executed = true;
            head.completionAt = start + head.exec.costCycles;
            _freeAt = head.completionAt;
        }
        if (head.completionAt > now)
            break;              // verdict not available yet
        deliverHead(now, /*forced=*/false);
    }
    updateBackpressure(now);
}

void
CheckScheduler::drain(uint64_t now)
{
    pump(now);
    while (!_queue.empty())
        deliverHead(std::max(now, _freeAt), /*forced=*/false);
}

void
CheckScheduler::dropProcess(uint64_t cr3)
{
    for (auto it = _queue.begin(); it != _queue.end();) {
        if (it->request.cr3 == cr3) {
            ++_stats.droppedQuarantined;
            it = _queue.erase(it);
        } else {
            ++it;
        }
    }
}

size_t
CheckScheduler::dropAllForCrash()
{
    const size_t wiped = _queue.size();
    _stats.lostToCrash += wiped;
    _queue.clear();
    _freeAt = 0;
    return wiped;
}

bool
CheckScheduler::shedOneAudit()
{
    for (auto it = _queue.begin(); it != _queue.end(); ++it) {
        if (it->request.audit) {
            ++_stats.shedAudit;
            _queue.erase(it);
            return true;
        }
    }
    return false;
}

void
CheckScheduler::updateBackpressure(uint64_t now)
{
    _stats.maxQueueDepth =
        std::max(_stats.maxQueueDepth, _queue.size());
    const bool pressured =
        _queue.size() > _config.depthHighWatermark ||
        oldestAge(now) > age_high_watermark_cycles;
    if (pressured) {
        if (_batchFactor < _config.maxBatchFactor) {
            _batchFactor =
                std::min(_config.maxBatchFactor, _batchFactor * 2);
            ++_stats.batchRaises;
        }
        // Audit work is the first ballast overboard.
        while (_queue.size() > _config.depthHighWatermark &&
               shedOneAudit()) {
        }
    } else if (_batchFactor > 1 &&
               _queue.size() * 2 <= _config.depthHighWatermark) {
        _batchFactor /= 2;
    }
}

} // namespace flowguard::runtime

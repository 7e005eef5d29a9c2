#include "runtime/monitor.hh"

#include <algorithm>

#include "decode/fast_decoder.hh"

namespace flowguard::runtime {

bool
MonitorStats::checkInvariants(std::string *why) const
{
    const auto fail = [&](const char *what) {
        if (why)
            *why = what;
        return false;
    };
    if (checks !=
        fastPass + fastViolations + lossViolations + escalations) {
        return fail("checks != fastPass + fastViolations + "
                    "lossViolations + escalations");
    }
    if (violations != fastViolations + slowViolations + lossViolations)
        return fail("violations != fastViolations + slowViolations + "
                    "lossViolations");
    if (slowChecks != slowPass + slowViolations)
        return fail("slowChecks != slowPass + slowViolations");
    if (lossWindows != lossViolations + lossEscalations + lossAccepted)
        return fail("lossWindows != lossViolations + lossEscalations "
                    "+ lossAccepted");
    if (highCreditEdges > edgesChecked)
        return fail("highCreditEdges > edgesChecked");
    if (lossEscalations > escalations)
        return fail("lossEscalations > escalations");
    return true;
}

void
registerMonitorMetrics(telemetry::MetricRegistry &registry,
                       const MonitorStats &stats,
                       const std::string &prefix)
{
    registry.addSource(prefix, [&stats, prefix](
                                   telemetry::MetricRegistry &reg) {
        const auto set = [&](const char *name, uint64_t value) {
            reg.counter(prefix + "." + name).set(value);
        };
        set("checks", stats.checks);
        set("fast_pass", stats.fastPass);
        set("fast_violations", stats.fastViolations);
        set("escalations", stats.escalations);
        set("slow_checks", stats.slowChecks);
        set("slow_pass", stats.slowPass);
        set("slow_violations", stats.slowViolations);
        set("violations", stats.violations);
        set("tips_checked", stats.tipsChecked);
        set("edges_checked", stats.edgesChecked);
        set("high_credit_edges", stats.highCreditEdges);
        set("loss_windows", stats.lossWindows);
        set("overflows", stats.overflows);
        set("resyncs", stats.resyncs);
        set("bytes_skipped", stats.bytesSkipped);
        set("loss_escalations", stats.lossEscalations);
        set("loss_violations", stats.lossViolations);
        set("loss_accepted", stats.lossAccepted);
        set("unknown_code_tips", stats.unknownCodeTips);
        set("jit_waived_tips", stats.jitWaivedTips);
        set("jit_degraded_checks", stats.jitDegradedChecks);
        set("stale_violations", stats.staleViolations);
        set("staged_invalidated", stats.stagedInvalidated);
        reg.gauge(prefix + ".fast_path_rate")
            .set(stats.fastPathRate());
        reg.gauge(prefix + ".cred_ratio").set(stats.credRatio());
    });
}

Monitor::Monitor(const isa::Program &program, analysis::ItcCfg &itc,
                 const analysis::Cfg &ocfg,
                 const analysis::TypeArmorInfo &typearmor,
                 MonitorConfig config, cpu::CycleAccount *account,
                 analysis::PathIndex *paths)
    : _itc(itc), _config(config), _paths(paths),
      _fast(itc, program, config.fastPath, account, paths),
      _slow(ocfg, typearmor, account)
{}

void
Monitor::attachDynamic(dynamic::DynamicGuard &guard)
{
    _fast.setDynamic(&guard.map(), guard.policy());
    _slow.setDynamic(&guard.map(), guard.policy(), &_itc);
    guard.registerInvalidationHook(
        [this](uint64_t begin, uint64_t end) {
            return invalidateStaged(begin, end);
        });
}

size_t
Monitor::invalidateStaged(uint64_t begin, uint64_t end)
{
    if (_cacheTransitions.empty())
        return 0;
    const auto touches = [&](const decode::TipTransition &transition) {
        const bool from_in = transition.from >= begin &&
                             transition.from < end;
        const bool to_in = transition.to >= begin &&
                           transition.to < end;
        return from_in || to_in;
    };
    const size_t before = _cacheTransitions.size();
    _cacheTransitions.erase(
        std::remove_if(_cacheTransitions.begin(),
                       _cacheTransitions.end(), touches),
        _cacheTransitions.end());
    const size_t dropped = before - _cacheTransitions.size();
    if (_cacheTransitions.empty())
        _cachePending = false;
    _stats.stagedInvalidated += dropped;
    return dropped;
}

void
Monitor::setTelemetry(telemetry::Telemetry *telemetry, uint64_t cr3)
{
    _telemetry = telemetry;
    _telemetryCr3 = cr3;
    _fast.setTelemetry(telemetry, cr3);
    _slow.setTelemetry(telemetry, cr3);
}

uint64_t
Monitor::consumeUnknownAudit()
{
    const uint64_t pending = _pendingUnknownAudit;
    _pendingUnknownAudit = 0;
    return pending;
}

ViolationReport
Monitor::violationReport(uint64_t cr3, uint64_t seq,
                         int64_t syscall) const
{
    ViolationReport report;
    report.cr3 = cr3;
    report.seq = seq;
    report.syscall = syscall;
    switch (_lastSource) {
      case VerdictSource::LossPolicy:
        // A trace gap, not flow evidence: there is no edge to blame.
        report.kind = ViolationReport::Kind::TraceLoss;
        report.reason = "trace loss (fail-closed policy)";
        break;
      case VerdictSource::FastPath:
        report.from = _lastFast.violatingFrom;
        report.to = _lastFast.violatingTo;
        report.reason = _lastFast.staleHit
            ? "fast path: transition into unloaded module's stale "
              "range"
            : "fast path: ITC-CFG edge mismatch";
        break;
      case VerdictSource::SlowPath:
        report.from = _lastSlow.violatingSource;
        report.to = _lastSlow.violatingTarget;
        report.reason = "slow path: " + _lastSlow.reason;
        break;
    }
    return report;
}

Monitor::FastPhaseOutcome
Monitor::fastPhase(std::span<const uint8_t> packets, size_t pkt_count)
{
    const bool force_slow = _forceSlowNext;
    _forceSlowNext = false;
    ++_stats.checks;
    _lastFast = _fast.check(packets, pkt_count);
    _lastSource = VerdictSource::FastPath;
    _stats.tipsChecked += _lastFast.tipsChecked;
    _stats.edgesChecked += _lastFast.edgesChecked;
    _stats.highCreditEdges += _lastFast.highCreditEdges;
    _stats.unknownCodeTips += _lastFast.unknownTips;
    _stats.jitWaivedTips += _lastFast.jitTips;
    _pendingUnknownAudit += _lastFast.unknownTips;
    if (_lastFast.staleHit)
        ++_stats.staleViolations;

    FastPhaseOutcome outcome;
    outcome.loss = _lastFast.lossDetected();
    if (outcome.loss) {
        ++_stats.lossWindows;
        _stats.overflows += _lastFast.overflows;
        _stats.resyncs += _lastFast.resyncs;
        _stats.bytesSkipped += _lastFast.bytesSkipped;
    }

    if (outcome.loss && _config.lossPolicy == LossPolicy::FailClosed) {
        // The gap could hide anything; the policy says nothing passes
        // unverified. This is a loss conviction, not a flow mismatch.
        ++_stats.lossViolations;
        ++_stats.violations;
        _lastSource = VerdictSource::LossPolicy;
        outcome.verdict = CheckVerdict::Violation;
        _verdictLog.push_back(static_cast<uint8_t>(outcome.verdict));
        if (_telemetry) {
            _telemetry->instant(telemetry::EventKind::Violation,
                                _telemetryCr3);
        }
        return outcome;
    }
    if (outcome.loss && _config.lossPolicy == LossPolicy::LogAndPass)
        ++_stats.lossAccepted;

    // Under EscalateSlowPath a lossy window always goes to the slow
    // path: the fast decode of a damaged buffer is trusted neither to
    // pass nor to convict — the full decode of what survived decides.
    const bool escalate_loss = outcome.loss &&
        _config.lossPolicy == LossPolicy::EscalateSlowPath;

    // A forced window (first check after a warm restart) never
    // resolves on the fast path: replayed credit may accelerate
    // checks again only after one authoritative slow-path verdict.
    if (!escalate_loss && !force_slow) {
        if (_lastFast.verdict == CheckVerdict::Pass) {
            ++_stats.fastPass;
            outcome.verdict = CheckVerdict::Pass;
            _verdictLog.push_back(
                static_cast<uint8_t>(outcome.verdict));
            return outcome;
        }
        if (_lastFast.verdict == CheckVerdict::Violation) {
            ++_stats.violations;
            ++_stats.fastViolations;
            outcome.verdict = CheckVerdict::Violation;
            _verdictLog.push_back(
                static_cast<uint8_t>(outcome.verdict));
            if (_telemetry) {
                _telemetry->instant(telemetry::EventKind::Violation,
                                    _telemetryCr3, 0,
                                    _lastFast.violatingFrom,
                                    _lastFast.violatingTo);
            }
            return outcome;
        }
    }

    outcome.needSlow = true;
    outcome.verdict = CheckVerdict::Suspicious;
    ++_stats.escalations;
    if (escalate_loss)
        ++_stats.lossEscalations;
    return outcome;
}

CheckVerdict
Monitor::slowPhase(std::span<const uint8_t> packets, bool loss)
{
    // Suspicious (or loss escalation): upcall into the slow-path engine.
    ++_stats.slowChecks;
    _lastSlow = _slow.check(packets);
    _lastSource = VerdictSource::SlowPath;
    if (_lastSlow.degraded)
        ++_stats.jitDegradedChecks;
    if (_lastSlow.staleHit)
        ++_stats.staleViolations;
    if (_lastSlow.verdict == CheckVerdict::Violation) {
        ++_stats.violations;
        ++_stats.slowViolations;
        _verdictLog.push_back(
            static_cast<uint8_t>(CheckVerdict::Violation));
        if (_telemetry) {
            _telemetry->instant(telemetry::EventKind::Violation,
                                _telemetryCr3, 0,
                                _lastSlow.violatingSource,
                                _lastSlow.violatingTarget);
        }
        return CheckVerdict::Violation;
    }
    ++_stats.slowPass;
    _verdictLog.push_back(static_cast<uint8_t>(CheckVerdict::Pass));

    // Never cache verdicts from a lossy window: edges extracted from
    // a damaged buffer must not earn durable high credit.
    if (_config.cacheSlowPathVerdicts && !loss) {
        stageCache(packets);
        if (_config.autoCommitCache)
            commitCache();
    }
    return CheckVerdict::Pass;
}

void
Monitor::stageCache(std::span<const uint8_t> packets)
{
    // The slow path vouched for this window; stage its edges for
    // promotion so the fast path handles recurrences alone (§7.1.1).
    // A wrapped ToPA snapshot starts mid-packet, so sync at the first
    // PSB.
    auto flow = decode::decodeRecentTips(packets, packets.size());
    _cacheTransitions = decode::extractTipTransitions(flow);
    _cachePending = true;
}

void
Monitor::commitCache()
{
    if (!_cachePending)
        return;
    if (_telemetry) {
        const uint64_t now = _telemetry->now();
        _telemetry->completeSpan(telemetry::SpanKind::VerdictCommit,
                                 _telemetryCr3, 0, now, now, 0,
                                 _cacheTransitions.size());
        _telemetry->instant(telemetry::EventKind::CreditCommit,
                            _telemetryCr3, 0,
                            _cacheTransitions.size());
    }
    if (_commitObserver)
        _commitObserver(_cacheTransitions);
    replayCommit(_cacheTransitions);
    discardCache();
}

void
Monitor::replayCommit(
    const std::vector<decode::TipTransition> &transitions)
{
    if (_paths) {
        std::vector<uint64_t> targets;
        targets.reserve(transitions.size());
        for (const auto &transition : transitions)
            targets.push_back(transition.to);
        _paths->observe(targets);
    }
    for (const auto &transition : transitions) {
        if (transition.from == 0)
            continue;
        const int64_t edge =
            _itc.findEdge(transition.from, transition.to);
        if (edge < 0)
            continue;
        // Online credit goes into the revocable runtime bitmap, not
        // the trained one: unload/rebase must be able to take it back
        // for a range without erasing training data.
        _itc.setRuntimeCredit(edge);
        _itc.addTntSequence(edge, transition.tnt);
    }
}

void
Monitor::discardCache()
{
    _cacheTransitions.clear();
    _cachePending = false;
}

} // namespace flowguard::runtime

#include "runtime/service.hh"

#include <algorithm>

#include "cpu/cost_model.hh"
#include "support/logging.hh"

namespace flowguard::runtime {

const char *
quarantineActionName(QuarantineAction action)
{
    switch (action) {
      case QuarantineAction::Suspend: return "suspend";
      case QuarantineAction::Kill: return "kill";
      case QuarantineAction::Audit: return "audit";
    }
    return "?";
}

const char *
windowClassName(ProtectionWindowClass cls)
{
    switch (cls) {
      case ProtectionWindowClass::Checked: return "checked";
      case ProtectionWindowClass::Deferred: return "deferred";
      case ProtectionWindowClass::Lossy: return "lossy";
      case ProtectionWindowClass::Gap: return "gap";
    }
    return "?";
}

bool
ServiceStats::checkInvariants(std::string *why) const
{
    auto fail = [&](const char *what) {
        if (why)
            *why = what;
        return false;
    };
    if (endpointChecks != coalesced + inlineFastPass +
            inlineFastViolations + escalations)
        return fail("endpointChecks != coalesced + inlineFastPass + "
                    "inlineFastViolations + escalations");
    if (attachAttempts < attachRetries + attachFailures)
        return fail("attachAttempts < attachRetries + attachFailures");
    if (crashWipedKills < requeuedKills)
        return fail("crashWipedKills < requeuedKills");
    return true;
}

ProtectionService::ProtectionService(ServiceConfig config)
    : _config(config),
      _scheduler(
          config.scheduler,
          [this](const CheckRequest &request) {
              return execute(request);
          },
          [this](const CheckRequest &request, bool commit) {
              cacheDecision(request, commit);
          },
          [this](const CheckRequest &request,
                 const CheckExecution &exec, uint64_t age) {
              deliver(request, exec, age);
          }),
      _rng(config.rngSeed)
{}

void
ProtectionService::setTelemetry(telemetry::Telemetry *telemetry)
{
    _telemetry = telemetry;
    if (_telemetry) {
        _histSlowCheck =
            &_telemetry->metrics().histogram("service.slow_check_cycles");
        _histDeferralAge =
            &_telemetry->metrics().histogram("service.deferral_age_cycles");
    } else {
        _histSlowCheck = nullptr;
        _histDeferralAge = nullptr;
    }
    for (auto &entry : _processes)
        entry.second.monitor->setTelemetry(_telemetry, entry.first);
}

void
ProtectionService::addProcess(uint64_t cr3, Monitor &monitor,
                              trace::IptEncoder &encoder,
                              trace::Topa &topa, cpu::Cpu &cpu,
                              cpu::CycleAccount *account)
{
    ProcessRecord record;
    record.cr3 = cr3;
    record.monitor = &monitor;
    record.encoder = &encoder;
    record.topa = &topa;
    record.cpu = &cpu;
    record.account = account;
    record.basePktCount = monitor.pktCount();
    if (_telemetry)
        monitor.setTelemetry(_telemetry, cr3);
    _processes[cr3] = std::move(record);
}

ProtectionService::AttachOutcome
ProtectionService::attachAll()
{
    AttachOutcome outcome;
    for (auto &entry : _processes) {
        if (attachOne(entry.second))
            ++outcome.attached;
        else
            ++outcome.failed;
    }
    return outcome;
}

bool
ProtectionService::attachOne(ProcessRecord &proc)
{
    if (proc.attached)
        return true;
    const RetryConfig &retry = _config.retry;
    for (uint32_t attempt = 0; attempt < retry.maxAttempts; ++attempt) {
        ++proc.attachAttempts;
        ++_stats.attachAttempts;
        // Two fallible steps in order: the syscall-table
        // interposition, then the RTIT enable.
        const bool attach_fails = _faults && _faults->failAttach();
        const bool start_fails =
            !attach_fails && _faults && _faults->failTraceStart();
        if (!attach_fails && !start_fails) {
            proc.attached = true;
            return true;
        }
        if (attempt + 1 < retry.maxAttempts) {
            ++_stats.attachRetries;
            // Exponential backoff, capped, plus seeded jitter so a
            // fleet of retries never thunders in lockstep.
            const uint64_t shift = std::min<uint32_t>(attempt, 32);
            const uint64_t exponential =
                std::min(retry.backoffCapCycles,
                         retry.backoffBaseCycles << shift);
            const uint64_t jitter = _rng.below(
                std::max<uint64_t>(1, retry.backoffBaseCycles));
            _stats.attachBackoffCycles += exponential + jitter;
        }
    }
    ++_stats.attachFailures;
    ViolationReport report;
    report.kind = ViolationReport::Kind::AttachFailure;
    report.cr3 = proc.cr3;
    report.reason = "attach failed after " +
        std::to_string(proc.attachAttempts) +
        " attempts (control-plane fault)";
    warn("FlowGuard service: cr3=", proc.cr3, " ", report.reason);
    _reports.push_back(std::move(report));
    return false;
}

bool
ProtectionService::isProtected(uint64_t cr3) const
{
    auto it = _processes.find(cr3);
    return it != _processes.end() && it->second.attached;
}

bool
ProtectionService::recoveryGatePending(uint64_t cr3) const
{
    return _recovery && _recovery->checkerDown() &&
        _processes.count(cr3) != 0;
}

bool
ProtectionService::quarantined(uint64_t cr3) const
{
    auto it = _processes.find(cr3);
    return it != _processes.end() && it->second.quarantined;
}

uint64_t
ProtectionService::virtualNow() const
{
    uint64_t insts = 0;
    for (const auto &entry : _processes)
        insts += entry.second.cpu->instCount();
    return insts;
}

CheckExecution
ProtectionService::execute(const CheckRequest &request)
{
    CheckExecution exec;
    auto it = _processes.find(request.cr3);
    if (it == _processes.end()) {
        exec.verdict = CheckVerdict::Pass;    // process unregistered
        return exec;
    }
    Monitor &monitor = *it->second.monitor;
    exec.verdict = monitor.slowPhase(request.packets, request.loss);
    if (exec.verdict == CheckVerdict::Violation)
        exec.report = monitor.violationReport(request.cr3, request.seq,
                                              request.syscall);
    const SlowPathResult &slow = monitor.lastSlow();
    exec.costCycles = static_cast<uint64_t>(
        static_cast<double>(slow.instructionsWalked) *
            cpu::cost::sw_full_decode_per_inst +
        static_cast<double>(slow.branchesChecked) *
            (cpu::cost::sw_full_decode_per_branch +
             cpu::cost::slow_check_per_branch));
    if (_faults)
        exec.costCycles += _faults->slowPathStallNow();
    if (_histSlowCheck)
        _histSlowCheck->record(exec.costCycles);
    return exec;
}

void
ProtectionService::cacheDecision(const CheckRequest &request,
                                 bool commit)
{
    auto it = _processes.find(request.cr3);
    if (it == _processes.end())
        return;
    if (commit)
        it->second.monitor->commitCache();
    else
        it->second.monitor->discardCache();
}

void
ProtectionService::deliver(const CheckRequest &request,
                           const CheckExecution &exec, uint64_t age)
{
    auto it = _processes.find(request.cr3);
    if (it == _processes.end())
        return;
    ProcessRecord &proc = it->second;
    // The escalation's lifetime in one bounded span: enqueue at the
    // endpoint, verdict `age` cycles later on the virtual clock.
    if (_telemetry) {
        _telemetry->completeSpan(
            telemetry::SpanKind::SlowEscalate, proc.cr3, request.seq,
            request.enqueuedAt, request.enqueuedAt + age,
            static_cast<uint8_t>(exec.verdict), exec.report.from,
            exec.report.to);
        if (_histDeferralAge)
            _histDeferralAge->record(age);
    }
    if (exec.verdict != CheckVerdict::Violation)
        return;
    ViolationReport report = withFlight(exec.report);
    report.reason +=
        " [deferred " + std::to_string(age) + " cycles]";
    if (request.audit) {
        ++_stats.auditViolations;
        report.reason += " [audit-class, enforcement waived]";
        _reports.push_back(std::move(report));
        return;
    }
    ++_stats.deferredKills;
    // Commit point: the verdict exists but the kill has not reached
    // its process yet. Journaling here is what lets a checker crash
    // in the commit-to-delivery window neither lose the kill nor,
    // after replay, deliver it twice.
    if (_recovery)
        _recovery->noteVerdictCommitted(report);
    if (_telemetry)
        _telemetry->instant(telemetry::EventKind::VerdictCommitted,
                            proc.cr3, report.seq);
    proc.pendingKills.push_back(std::move(report));
}

bool
ProtectionService::consumePendingKill(uint64_t cr3,
                                      ViolationReport &out)
{
    auto it = _processes.find(cr3);
    if (it == _processes.end() || it->second.pendingKills.empty())
        return false;
    out = std::move(it->second.pendingKills.front());
    it->second.pendingKills.pop_front();
    if (_recovery)
        _recovery->noteVerdictDelivered(cr3, out.seq);
    if (_telemetry) {
        // Delivery is instantaneous on the sim clock: the kill lands
        // at the syscall that consumed it. A zero-width span keeps it
        // on the lifecycle track (trap → … → delivery) in the trace.
        const uint64_t t = _telemetry->now();
        _telemetry->completeSpan(telemetry::SpanKind::Delivery, cr3,
                                 out.seq, t, t);
        _telemetry->instant(telemetry::EventKind::VerdictDelivered,
                            cr3, out.seq);
    }
    return true;
}

void
ProtectionService::noteWindow(const ProcessRecord &proc,
                              ProtectionWindowClass cls)
{
    if (_recovery)
        _recovery->noteWindow(proc.cr3, proc.seq, cls);
}

EndpointDecision
ProtectionService::onEndpoint(cpu::Cpu &cpu, int64_t syscall)
{
    EndpointDecision decision;
    const uint64_t cr3 = cpu.program().cr3();
    auto it = _processes.find(cr3);
    if (it == _processes.end())
        return decision;
    ProcessRecord &proc = it->second;
    const uint64_t now = virtualNow();

    // The recovery gate first — BEFORE the attached check, because a
    // checker crash detaches every process and the gate is exactly
    // what governs (observes, restarts, accounts) that window. If
    // the checker is dead or restarting, nothing below exists to
    // run. The window is an explicit, accounted protection gap — the
    // sequence number still advances (it is kernel-side protocol
    // state), but no check runs and no stale pending kill can fire.
    if (_recovery &&
        _recovery->gateEndpoint(cr3, proc.seq + 1, now) ==
            RecoveryHooks::Gate::SkipUnchecked) {
        decision.seq = ++proc.seq;
        ++_stats.gapSkipped;
        noteWindow(proc, ProtectionWindowClass::Gap);
        return decision;
    }
    if (!proc.attached)
        return decision;

    // Deliver any deferred verdicts the virtual clock has reached;
    // one of them may be a kill for this very process.
    _scheduler.pump(now);
    ViolationReport pending;
    if (consumePendingKill(cr3, pending)) {
        decision.kill = true;
        decision.report = std::move(pending);
        return decision;
    }

    decision.seq = ++proc.seq;
    ++_stats.endpointChecks;
    if (proc.account)
        proc.account->other += cpu::cost::intercept_per_syscall;

    // Adaptive batching: backpressure widens the checked window so
    // one check amortizes over more TIPs, and endpoint hits whose
    // trace has not advanced enough coalesce into the next one.
    // drain() ends the run with a full check per process, so
    // coalescing delays detection but never loses it.
    const size_t batch = _scheduler.batchFactor();
    proc.monitor->setPktCount(proc.basePktCount * batch);
    const uint64_t written = proc.topa->totalWritten();
    if (batch > 1 &&
        written - proc.lastCheckedWritten <
            _config.coalesceBytesPerBatch * batch) {
        ++_stats.coalesced;
        return decision;
    }

    // An injected PMI storm lands as spurious buffer-full service
    // work: audit-class requests that load the checking core.
    if (_faults) {
        for (uint32_t storm = _faults->pmiStormNow(); storm > 0;
             --storm) {
            CheckRequest spurious;
            spurious.cr3 = cr3;
            spurious.seq = proc.seq;
            spurious.syscall = syscall;
            spurious.audit = true;
            spurious.packets = proc.topa->snapshot();
            ++_stats.pmiStormChecks;
            const auto outcome =
                _scheduler.submit(std::move(spurious), now);
            if (outcome.exec.ran &&
                outcome.exec.verdict == CheckVerdict::Violation)
                ++_stats.auditViolations;
        }
    }

    proc.encoder->flushTnt();
    const std::span<const uint8_t> packets = proc.topa->view();
    proc.lastCheckedWritten = written;

    // The fast phase always runs inline on the live ring: it is cheap
    // and bounded. Only an escalated window is copied out to queue.
    const Monitor::FastPhaseOutcome fast =
        proc.monitor->fastPhase(packets);
    if (!fast.needSlow) {
        noteWindow(proc, fast.loss ? ProtectionWindowClass::Lossy
                                   : ProtectionWindowClass::Checked);
        if (fast.verdict == CheckVerdict::Violation) {
            ++_stats.inlineFastViolations;
            decision.kill = true;
            decision.report = withFlight(
                proc.monitor->violationReport(cr3, proc.seq, syscall));
            return decision;
        }
        ++_stats.inlineFastPass;
        proc.consecutiveMisses = 0;
        return decision;
    }

    // Escalation: schedulable slow-path work under the deadline.
    ++_stats.escalations;
    CheckRequest request;
    request.cr3 = cr3;
    request.seq = proc.seq;
    request.syscall = syscall;
    request.loss = fast.loss;
    request.audit = proc.quarantined &&
        _config.quarantineAction == QuarantineAction::Audit;
    request.packets.assign(packets.begin(), packets.end());
    const auto outcome = _scheduler.submit(std::move(request), now);
    return resolve(proc, syscall, outcome, fast.loss, now);
}

EndpointDecision
ProtectionService::codeBarrier(cpu::Cpu &cpu, int64_t syscall)
{
    EndpointDecision decision;
    const uint64_t cr3 = cpu.program().cr3();
    auto it = _processes.find(cr3);
    if (it == _processes.end())
        return decision;
    ProcessRecord &proc = it->second;

    // Dead checker (gated before the attached check — the crash is
    // what detached us): the unload proceeds unchecked. The code
    // event itself is still journaled (the supervisor subscribes to
    // the kernel's event stream, which survives the checker), so
    // replay knows credit on this range must not be restored.
    if (_recovery &&
        _recovery->gateEndpoint(cr3, proc.seq + 1, virtualNow()) ==
            RecoveryHooks::Gate::SkipUnchecked) {
        decision.seq = ++proc.seq;
        ++_stats.gapSkipped;
        noteWindow(proc, ProtectionWindowClass::Gap);
        return decision;
    }
    if (!proc.attached)
        return decision;

    decision.seq = ++proc.seq;
    ++_stats.barrierChecks;
    if (proc.account)
        proc.account->other += cpu::cost::intercept_per_syscall;

    // Full-window check, synchronous by design: the unload must not
    // retire code the checker has not finished judging, so this one
    // check bypasses the scheduler and its deadlines.
    proc.monitor->setPktCount(proc.basePktCount);
    proc.encoder->flushTnt();
    const CheckVerdict verdict =
        proc.monitor->checkFull(proc.topa->view());
    noteWindow(proc, proc.monitor->lastFast().lossDetected()
                         ? ProtectionWindowClass::Lossy
                         : ProtectionWindowClass::Checked);
    if (verdict == CheckVerdict::Violation) {
        ViolationReport report = withFlight(
            proc.monitor->violationReport(cr3, proc.seq, syscall));
        const bool audit_class = proc.quarantined &&
            _config.quarantineAction == QuarantineAction::Audit;
        if (audit_class) {
            ++_stats.auditViolations;
            report.reason += " [audit-class, enforcement waived]";
            _reports.push_back(std::move(report));
        } else {
            decision.kill = true;
            decision.report = std::move(report);
            return decision;
        }
    }

    // The pre-unload window passed while the module map still showed
    // the code live: bank its staged credit now — once the unload
    // event fires, staged entries touching the range are dropped —
    // then restart the stream so post-barrier windows can only
    // contain post-unload TIPs.
    if (proc.monitor->cachePending())
        proc.monitor->commitCache();
    proc.topa->clear();
    proc.encoder->restartStream();
    proc.lastCheckedWritten = proc.topa->totalWritten();
    return decision;
}

EndpointDecision
ProtectionService::resolve(ProcessRecord &proc, int64_t syscall,
                           const CheckScheduler::SubmitOutcome &out,
                           bool loss, uint64_t now)
{
    EndpointDecision decision;
    decision.seq = proc.seq;
    const bool audit_class = proc.quarantined &&
        _config.quarantineAction == QuarantineAction::Audit;

    // Escalations resolved at the endpoint get their span here; the
    // deferred ones get theirs at deliver(), where the age is known.
    // Shed work never ran, so there is no span to bound.
    if (_telemetry &&
        out.resolution != CheckResolution::Deferred &&
        out.resolution != CheckResolution::Shed) {
        uint64_t end = now + out.exec.costCycles;
        uint8_t verdict = out.exec.ran
            ? static_cast<uint8_t>(out.exec.verdict)
            : static_cast<uint8_t>(CheckVerdict::Violation);
        if (out.resolution == CheckResolution::TimeoutConviction &&
            !out.exec.ran)
            end = now + _config.scheduler.deadlineCycles;
        _telemetry->completeSpan(
            telemetry::SpanKind::SlowEscalate, proc.cr3, proc.seq,
            now, end, verdict, out.exec.report.from,
            out.exec.report.to);
    }

    // Attribute this window's cycles: a shed check is a gap (nothing
    // will ever judge it), a deferred one is late-but-guaranteed, a
    // lossy one was judged over damaged trace, anything else was
    // checked with a verdict in hand.
    ProtectionWindowClass cls = ProtectionWindowClass::Checked;
    if (out.resolution == CheckResolution::Shed)
        cls = ProtectionWindowClass::Gap;
    else if (loss)
        cls = ProtectionWindowClass::Lossy;
    else if (out.resolution == CheckResolution::Deferred)
        cls = ProtectionWindowClass::Deferred;
    noteWindow(proc, cls);

    switch (out.resolution) {
      case CheckResolution::InlinePass:
        proc.consecutiveMisses = 0;
        break;
      case CheckResolution::InlineViolation: {
        proc.consecutiveMisses = 0;
        ViolationReport report = withFlight(out.exec.report);
        if (audit_class) {
            ++_stats.auditViolations;
            report.reason += " [audit-class, enforcement waived]";
            _reports.push_back(std::move(report));
        } else {
            decision.kill = true;
            decision.report = std::move(report);
        }
        break;
      }
      case CheckResolution::TimeoutConviction: {
        decision.kill = true;
        ViolationReport report;
        report.kind = ViolationReport::Kind::CheckTimeout;
        report.cr3 = proc.cr3;
        report.seq = proc.seq;
        report.syscall = syscall;
        report.reason =
            "check deadline exceeded (fail-closed overload policy)";
        if (_telemetry)
            report.flight = _telemetry->snapshotFlight(proc.cr3);
        decision.report = std::move(report);
        noteDeadlineMiss(proc, syscall, decision);
        break;
      }
      case CheckResolution::AuditWaived:
        if (out.exec.ran &&
            out.exec.verdict == CheckVerdict::Violation) {
            ++_stats.auditViolations;
            ViolationReport report = withFlight(out.exec.report);
            report.reason +=
                " [enforcement waived: audit-only overload policy]";
            _reports.push_back(std::move(report));
        }
        noteDeadlineMiss(proc, syscall, decision);
        break;
      case CheckResolution::Deferred:
        noteDeadlineMiss(proc, syscall, decision);
        break;
      case CheckResolution::Shed:
        break;
    }
    return decision;
}

void
ProtectionService::noteDeadlineMiss(ProcessRecord &proc,
                                    int64_t syscall,
                                    EndpointDecision &decision)
{
    ++proc.consecutiveMisses;
    if (proc.quarantined ||
        proc.consecutiveMisses < _config.breakerThreshold)
        return;

    // The breaker trips: this process's checks keep missing their
    // deadlines and it must stop degrading everyone else.
    ++_stats.quarantines;
    proc.quarantined = true;
    proc.consecutiveMisses = 0;
    ViolationReport report;
    report.kind = ViolationReport::Kind::Quarantined;
    report.cr3 = proc.cr3;
    report.seq = proc.seq;
    report.syscall = syscall;
    report.reason = "circuit breaker: " +
        std::to_string(_config.breakerThreshold) +
        " consecutive deadline misses (action: " +
        quarantineActionName(_config.quarantineAction) + ")";
    warn("FlowGuard service: cr3=", proc.cr3, " ", report.reason);
    switch (_config.quarantineAction) {
      case QuarantineAction::Suspend:
        _scheduler.dropProcess(proc.cr3);
        if (_machine)
            _machine->setSuspended(proc.cr3, true);
        _reports.push_back(std::move(report));
        break;
      case QuarantineAction::Kill:
        _scheduler.dropProcess(proc.cr3);
        if (decision.kill) {
            // Already dying this endpoint; just log the trip.
            _reports.push_back(std::move(report));
        } else {
            decision.kill = true;
            decision.report = std::move(report);
        }
        break;
      case QuarantineAction::Audit:
        // Keeps running; its future checks are audit-class.
        _reports.push_back(std::move(report));
        break;
    }
}

ViolationReport
ProtectionService::withFlight(ViolationReport report) const
{
    if (_telemetry)
        report.flight = _telemetry->snapshotFlight(report.cr3);
    return report;
}

void
ProtectionService::drain()
{
    if (_drained)
        return;
    _drained = true;
    const uint64_t now = virtualNow();

    // A run can end while the checker is down. The gate gives the
    // supervisor one last chance to warm-restart (so the final checks
    // below run against replayed state); if the restart is not due,
    // the tail of every process's execution is an accounted gap and
    // the final checks cannot exist.
    const bool checker_alive = !_recovery ||
        _recovery->gateDrain(now) == RecoveryHooks::Gate::Proceed;

    // One final full-window check per attached process: anything a
    // coalesced endpoint skipped is verified here.
    for (auto &entry : _processes) {
        ProcessRecord &proc = entry.second;
        if (!checker_alive) {
            // A crash detached everyone; their tail is still an
            // accounted gap, attached or not.
            noteWindow(proc, ProtectionWindowClass::Gap);
            continue;
        }
        if (!proc.attached)
            continue;
        proc.monitor->setPktCount(proc.basePktCount);
        proc.encoder->flushTnt();
        const std::span<const uint8_t> packets = proc.topa->view();
        const Monitor::FastPhaseOutcome fast =
            proc.monitor->fastPhase(packets);
        CheckVerdict verdict = fast.verdict;
        if (fast.needSlow)
            verdict = proc.monitor->slowPhase(packets, fast.loss);
        // End of run: credit earned here cannot be reused.
        proc.monitor->discardCache();
        noteWindow(proc, fast.loss ? ProtectionWindowClass::Lossy
                                   : ProtectionWindowClass::Checked);
        if (verdict == CheckVerdict::Violation) {
            ViolationReport report = withFlight(
                proc.monitor->violationReport(proc.cr3, proc.seq,
                                              /*syscall=*/-1));
            report.reason += " [post-mortem: drain]";
            _reports.push_back(std::move(report));
        }
    }

    _scheduler.drain(now);

    // Kills queued for processes that never made another syscall
    // are surfaced as post-mortem reports rather than lost.
    for (auto &entry : _processes) {
        ProcessRecord &proc = entry.second;
        while (!proc.pendingKills.empty()) {
            ViolationReport report =
                std::move(proc.pendingKills.front());
            proc.pendingKills.pop_front();
            if (_recovery)
                _recovery->noteVerdictDelivered(proc.cr3, report.seq);
            if (_telemetry)
                _telemetry->instant(
                    telemetry::EventKind::VerdictDelivered, proc.cr3,
                    report.seq);
            report.reason += " [post-mortem: process stopped first]";
            _reports.push_back(std::move(report));
        }
    }

    // Every drained run proves the accounting identities, in every
    // build type: a broken identity is a lost or double-counted check,
    // not a tolerable skew.
    std::string why;
    if (!_stats.checkInvariants(&why))
        fg_panic("service stats identity broken: ", why);
    if (!_scheduler.stats().checkInvariants(_scheduler.depth(), &why))
        fg_panic("scheduler stats identity broken: ", why);
    for (const auto &entry : _processes) {
        if (!entry.second.monitor->stats().checkInvariants(&why))
            fg_panic("monitor stats identity broken (cr3=",
                     entry.first, "): ", why);
    }
}

size_t
ProtectionService::crashWipe()
{
    _scheduler.dropAllForCrash();
    size_t wiped_kills = 0;
    for (auto &entry : _processes) {
        ProcessRecord &proc = entry.second;
        proc.monitor->discardCache();
        wiped_kills += proc.pendingKills.size();
        proc.pendingKills.clear();
        proc.consecutiveMisses = 0;
    }
    _stats.crashWipedKills += wiped_kills;
    return wiped_kills;
}

size_t
ProtectionService::detachAllForCrash()
{
    size_t detached = 0;
    for (auto &entry : _processes) {
        if (entry.second.attached) {
            entry.second.attached = false;
            ++detached;
        }
    }
    return detached;
}

void
ProtectionService::requeueKill(ViolationReport report)
{
    auto it = _processes.find(report.cr3);
    if (it == _processes.end())
        return;
    ++_stats.requeuedKills;
    it->second.pendingKills.push_back(std::move(report));
}

ProtectionService::ResyncOutcome
ProtectionService::resyncCheck(uint64_t cr3)
{
    ResyncOutcome outcome;
    auto it = _processes.find(cr3);
    if (it == _processes.end() || !it->second.attached)
        return outcome;
    ProcessRecord &proc = it->second;
    outcome.checked = true;
    ++_stats.resyncChecks;

    proc.monitor->setPktCount(proc.basePktCount);
    proc.encoder->flushTnt();
    const CheckVerdict verdict =
        proc.monitor->checkFull(proc.topa->view());
    if (verdict == CheckVerdict::Violation) {
        outcome.violation = true;
        outcome.report = withFlight(proc.monitor->violationReport(
            cr3, proc.seq, /*syscall=*/-1));
        outcome.report.reason += " [post-gap catch-up, audit-only]";
    }
    // Never bank credit from a window that spans the gap, and start
    // the stream over so the next window decodes from a clean PSB.
    proc.monitor->discardCache();
    proc.topa->clear();
    proc.encoder->restartStream();
    proc.lastCheckedWritten = proc.topa->totalWritten();
    return outcome;
}

void
registerServiceMetrics(telemetry::MetricRegistry &registry,
                       const ServiceStats &stats,
                       const std::string &prefix)
{
    registry.addSource(prefix, [&stats, prefix](
                                   telemetry::MetricRegistry &r) {
        auto c = [&](const char *name, uint64_t value) {
            r.counter(prefix + "." + name).set(value);
        };
        c("endpoint_checks", stats.endpointChecks);
        c("barrier_checks", stats.barrierChecks);
        c("coalesced", stats.coalesced);
        c("inline_fast_pass", stats.inlineFastPass);
        c("inline_fast_violations", stats.inlineFastViolations);
        c("escalations", stats.escalations);
        c("deferred_kills", stats.deferredKills);
        c("audit_violations", stats.auditViolations);
        c("quarantines", stats.quarantines);
        c("pmi_storm_checks", stats.pmiStormChecks);
        c("attach_attempts", stats.attachAttempts);
        c("attach_retries", stats.attachRetries);
        c("attach_failures", stats.attachFailures);
        c("attach_backoff_cycles", stats.attachBackoffCycles);
        c("gap_skipped", stats.gapSkipped);
        c("crash_wiped_kills", stats.crashWipedKills);
        c("requeued_kills", stats.requeuedKills);
        c("resync_checks", stats.resyncChecks);
    });
}

void
registerSchedulerMetrics(telemetry::MetricRegistry &registry,
                         const SchedulerStats &stats,
                         const std::string &prefix)
{
    registry.addSource(prefix, [&stats, prefix](
                                   telemetry::MetricRegistry &r) {
        auto c = [&](const char *name, uint64_t value) {
            r.counter(prefix + "." + name).set(value);
        };
        c("submitted", stats.submitted);
        c("inline_pass", stats.inlinePass);
        c("inline_violations", stats.inlineViolations);
        c("timeout_convictions", stats.timeoutConvictions);
        c("audit_waived", stats.auditWaived);
        c("deferred", stats.deferred);
        c("deferred_delivered", stats.deferredDelivered);
        c("forced_runs", stats.forcedRuns);
        c("shed_audit", stats.shedAudit);
        c("dropped_quarantined", stats.droppedQuarantined);
        c("lost_to_crash", stats.lostToCrash);
        c("timeouts", stats.timeouts);
        c("batch_raises", stats.batchRaises);
        c("max_queue_depth", stats.maxQueueDepth);
        if (!stats.deferralAges.empty()) {
            r.gauge(prefix + ".deferral_age_mean")
                .set(stats.deferralAges.mean());
            r.gauge(prefix + ".deferral_age_p99")
                .set(stats.deferralAges.quantile(0.99));
        }
    });
}

} // namespace flowguard::runtime

#include "recovery/supervisor.hh"

#include <string>

#include "support/fsio.hh"

namespace flowguard::recovery {

using runtime::ProtectionWindowClass;
using runtime::ViolationReport;

const char *
recoveryPolicyName(RecoveryPolicy policy)
{
    switch (policy) {
      case RecoveryPolicy::FailClosed: return "fail-closed";
      case RecoveryPolicy::ResyncAndAudit: return "resync-and-audit";
      case RecoveryPolicy::ColdRestart: return "cold-restart";
    }
    return "?";
}

RecoverySupervisor::RecoverySupervisor(RecoveryConfig config)
    : _config(config)
{}

void
RecoverySupervisor::attach(runtime::ProtectionService &service)
{
    _service = &service;
    service.setRecoveryHooks(this);
}

void
RecoverySupervisor::addProcess(uint64_t cr3,
                               runtime::Monitor &monitor,
                               analysis::ItcCfg &itc, cpu::Cpu &cpu,
                               const dynamic::DynamicGuard *dyn)
{
    ProcessRefs refs;
    refs.monitor = &monitor;
    refs.itc = &itc;
    refs.cpu = &cpu;
    refs.dyn = dyn;
    _procs[cr3] = refs;
    _ledger.begin(cr3, cpu.instCount());
    monitor.setCommitObserver(
        [this, cr3](const runtime::Monitor::CreditDelta &delta) {
            JournalRecord record;
            record.type = RecordType::CreditCommit;
            record.cr3 = cr3;
            {
                ByteWriter out(record.credits);
                encodeTransitions(out, delta.pairs);
            }
            record.creditCount = delta.pairs.size();
            record.paths.assign(delta.paths.begin(), delta.paths.end());
            journalAppend(record);
        });
}

void
RecoverySupervisor::advance(uint64_t now)
{
    if (_state == State::Dead || !_faults)
        return;
    const uint64_t crash_at = _faults->monitorCrashCycle();
    if (crash_at != 0 && !_crashFired && now >= crash_at) {
        _crashFired = true;
        crash(now, /*hang=*/false);
        return;
    }
    const uint64_t hang_at = _faults->monitorHangCycle();
    if (hang_at != 0 && !_hangFired && now >= hang_at) {
        _hangFired = true;
        crash(now, /*hang=*/true);
    }
}

void
RecoverySupervisor::crash(uint64_t now, bool hang)
{
    if (hang)
        ++_stats.hangs;
    else
        ++_stats.crashes;
    if (_telemetry) {
        // The checker just died; the per-process rings are the black
        // box. Dump them now — through the sink, so the trace shows
        // the final approach, and into crashDumps() for triage —
        // before anything post-crash pushes the tail events out.
        _telemetry->instant(telemetry::EventKind::CheckerCrash,
                            /*cr3=*/0, /*seq=*/0,
                            /*a=*/hang ? 1 : 0, /*b=*/now);
        _crashDumps.clear();
        for (const auto &entry : _procs)
            _crashDumps[entry.first] =
                _telemetry->dumpRecorder(entry.first);
    }
    _state = State::Dead;
    _downAt = now;
    _detectAt = now + _config.heartbeatIntervalCycles *
                      _config.missedHeartbeatsToDeclareDead;
    // A frozen fleet retires nothing, so on the virtual clock a
    // FailClosed restart has zero width: everything between detection
    // and checker-up happens "outside time" for the processes.
    _restartAt = _config.policy == RecoveryPolicy::FailClosed
        ? _detectAt
        : _detectAt + _config.restartLatencyCycles;
    _stats.heartbeatsMissed += _config.missedHeartbeatsToDeclareDead;

    // A crash (not a hang) can tear the append that was in flight.
    // Hangs leave the journal intact — the process is wedged, not
    // mid-write.
    if (!hang && _faults && _faults->tornJournalOnCrash())
        _stats.tornTailBytes +=
            _faults->tearJournalTail(_journal.mutableBytes());

    // Everything volatile dies with the checker process. Crash and
    // hang are handled uniformly: a hung checker is killed by the
    // watchdog, so its state is just as gone.
    if (_service) {
        _service->crashWipe();
        _service->detachAllForCrash();
    }
    for (auto &entry : _procs) {
        ProcessRefs &proc = entry.second;
        // The whole runtime overlay dies: credit, runtime TNT and
        // runtime n-grams. A cold checker starts from training alone.
        proc.itc->clearRuntime();
        if (analysis::PathIndex *paths = proc.monitor->paths())
            paths->clearRuntime();
        proc.gapStartInst = proc.cpu->instCount();
        proc.gapStartSeq = 0;
        proc.inGap = true;
    }
}

void
RecoverySupervisor::restart(uint64_t now)
{
    ++_stats.restarts;
    if (_telemetry)
        _telemetry->instant(telemetry::EventKind::CheckerRestart,
                            /*cr3=*/0, /*seq=*/0,
                            /*a=*/now - _downAt, /*b=*/now);
    _stats.downtimeCycles += now - _downAt;
    if (_config.policy == RecoveryPolicy::FailClosed)
        _stats.frozenCycles += _config.restartLatencyCycles;

    // Warm restart folds the durable bytes, not the live fold: after a
    // torn tail they are the truth.
    JournalReadResult tail;
    RecoveredState state = foldDurable(tail);
    _stats.replayedRecords += tail.records.size();
    for (const auto &record : tail.records)
        if (record.type == RecordType::CreditCommit)
            ++_stats.replayedCreditCommits;
    _stats.dedupSuppressed += state.dedupDropped;
    if (tail.status != ProfileLoadResult::Status::Ok) {
        // Appending after a torn frame would bury good records behind
        // garbage forever; cut the journal at the last intact record.
        _stats.tornTailBytes += tail.bytesDropped;
        _journal.truncateTo(tail.bytesConsumed);
    }

    _state = State::Alive;
    if (_service)
        _service->attachAll();

    for (const auto &entry : state.processes) {
        auto it = _procs.find(entry.first);
        if (it == _procs.end())
            continue;
        if (_config.policy == RecoveryPolicy::ColdRestart) {
            _stats.creditDroppedCold += entry.second.creditCount;
            continue;
        }
        // The fold's pairs are views of its wire bytes.
        std::vector<decode::TransitionView> credits;
        ByteReader in{entry.second.credits.data(),
                      entry.second.credits.size()};
        decodeTransitions(in, entry.second.creditCount, &credits);
        // Reconcile against the kernel's surviving module map: the
        // journal's fold already pruned credit behind every unload it
        // recorded, but a torn tail can be missing the final unload.
        // The dynamic guard's map is the other side of the process
        // boundary and cannot lie about what is currently retired.
        if (const dynamic::DynamicGuard *dyn = it->second.dyn) {
            const auto retired = dyn->retiredRanges();
            if (!retired.empty()) {
                _stats.replayReconciledDrops += std::erase_if(
                    credits,
                    [&retired](const decode::TransitionView &t) {
                        for (const auto &range : retired)
                            if ((t.from >= range.first &&
                                 t.from < range.second) ||
                                (t.to >= range.first &&
                                 t.to < range.second))
                                return true;
                        return false;
                    });
            }
        }
        // Replay learns the journaled deltas into the overlay; it does
        // not notify the commit observer, so nothing is re-journaled.
        it->second.monitor->replayCommit({credits, entry.second.paths});
        _stats.replayedTransitions += credits.size();
    }

    for (const auto &verdict : state.undeliveredVerdicts) {
        ViolationReport report;
        report.kind =
            static_cast<ViolationReport::Kind>(verdict.verdictKind);
        report.cr3 = verdict.cr3;
        report.seq = verdict.seq;
        report.syscall = verdict.syscall;
        report.from = verdict.from;
        report.to = verdict.to;
        report.reason = verdict.reason;
        if (_service)
            _service->requeueKill(std::move(report));
        ++_stats.requeuedVerdicts;
    }

    for (auto &entry : _procs) {
        ProcessRefs &proc = entry.second;
        if (_service) {
            const auto outcome = _service->resyncCheck(entry.first);
            if (outcome.checked)
                ++_stats.catchUpChecks;
            if (outcome.violation) {
                ++_stats.catchUpViolations;
                _reports.push_back(outcome.report);
            }
        }
        if (_config.policy != RecoveryPolicy::FailClosed) {
            proc.monitor->forceSlowNext();
            ++_stats.forcedSlowWindows;
        }
        if (proc.inGap &&
            proc.cpu->instCount() == proc.gapStartInst) {
            // The process never ran while the checker was down: no
            // cycle went unchecked, so there is no gap to report.
            proc.inGap = false;
        }
        if (proc.inGap) {
            // Close the gap at the restart boundary: cycles retired
            // between the crash and this instant belong to the Gap
            // bucket, no matter when the next endpoint fires.
            _ledger.attribute(entry.first, proc.cpu->instCount(),
                              ProtectionWindowClass::Gap);
            closeGap(entry.first, proc,
                     std::string("checker down ") +
                         std::to_string(now - _downAt) + " cycles (policy " +
                         recoveryPolicyName(_config.policy) +
                         ", detect at " + std::to_string(_detectAt) +
                         ", up at " + std::to_string(now) + ")");
        }
    }

    // The fold we just performed becomes the live fold and the new
    // snapshot; persisting it now means the next crash replays from
    // here.
    _live = std::move(state);
    _liveEdits = _journal.edits();
    compactNow();
    _stats.journalBytes = 0;
}

void
RecoverySupervisor::closeGap(uint64_t cr3, ProcessRefs &proc,
                             std::string reason)
{
    ViolationReport gap;
    gap.kind = ViolationReport::Kind::ProtectionGap;
    gap.cr3 = cr3;
    gap.seq = proc.gapStartSeq;
    gap.from = proc.gapStartInst;
    gap.to = proc.cpu->instCount();
    gap.reason = std::move(reason);
    if (_telemetry)
        gap.flight = _telemetry->snapshotFlight(cr3);
    _gapWidths.add(static_cast<double>(gap.to - gap.from));
    _reports.push_back(std::move(gap));
    proc.inGap = false;
}

RecoverySupervisor::Gate
RecoverySupervisor::gateEndpoint(uint64_t cr3, uint64_t seq,
                                 uint64_t now)
{
    advance(now);
    if (_state == State::Dead && now >= _restartAt)
        restart(now);
    if (_state == State::Alive)
        return Gate::Proceed;
    ++_stats.gapEndpoints;
    auto it = _procs.find(cr3);
    if (it != _procs.end() && it->second.inGap &&
        it->second.gapStartSeq == 0)
        it->second.gapStartSeq = seq;
    return Gate::SkipUnchecked;
}

RecoverySupervisor::Gate
RecoverySupervisor::gateDrain(uint64_t now)
{
    advance(now);
    if (_state == State::Dead && now >= _restartAt)
        restart(now);
    if (_state == State::Alive)
        return Gate::Proceed;
    // The run is ending with the checker still down: the gap never
    // closes. Report it as reaching end-of-run so the accounting
    // still places every cycle.
    emitGapReports(now);
    return Gate::SkipUnchecked;
}

void
RecoverySupervisor::emitGapReports(uint64_t now)
{
    for (auto &entry : _procs) {
        ProcessRefs &proc = entry.second;
        if (!proc.inGap)
            continue;
        if (proc.cpu->instCount() == proc.gapStartInst) {
            // Idle through the whole outage: nothing unchecked.
            proc.inGap = false;
            continue;
        }
        closeGap(entry.first, proc,
                 std::string("checker still down at drain (") +
                     std::to_string(now - _downAt) + " cycles, policy " +
                     recoveryPolicyName(_config.policy) + ")");
    }
}

void
RecoverySupervisor::noteWindow(uint64_t cr3, uint64_t seq,
                               ProtectionWindowClass cls)
{
    auto it = _procs.find(cr3);
    if (it == _procs.end())
        return;
    _ledger.attribute(cr3, it->second.cpu->instCount(), cls);
    if (cls == ProtectionWindowClass::Gap)
        return;     // a dead checker journals nothing
    JournalRecord record;
    record.type = RecordType::EndpointSeq;
    record.cr3 = cr3;
    record.seq = seq;
    journalAppend(record);
}

void
RecoverySupervisor::noteVerdictCommitted(const ViolationReport &report)
{
    JournalRecord record;
    record.type = RecordType::VerdictCommitted;
    record.cr3 = report.cr3;
    record.seq = report.seq;
    record.verdictKind = static_cast<uint8_t>(report.kind);
    record.syscall = report.syscall;
    record.from = report.from;
    record.to = report.to;
    record.reason = report.reason;
    journalAppend(record);
}

void
RecoverySupervisor::noteVerdictDelivered(uint64_t cr3, uint64_t seq)
{
    JournalRecord record;
    record.type = RecordType::VerdictDelivered;
    record.cr3 = cr3;
    record.seq = seq;
    journalAppend(record);
}

void
RecoverySupervisor::onCodeEvent(const cpu::CodeEvent &event)
{
    JournalRecord record;
    record.type = RecordType::ModuleEvent;
    record.cr3 = event.cr3;
    switch (event.kind) {
      case cpu::CodeEventKind::ModuleLoad:
      case cpu::CodeEventKind::JitRegionMap:
        record.moduleKind = ModuleEventKind::Load;
        break;
      case cpu::CodeEventKind::ModuleUnload:
      case cpu::CodeEventKind::JitRegionUnmap:
        record.moduleKind = ModuleEventKind::Unload;
        break;
      case cpu::CodeEventKind::Rebase:
        record.moduleKind = ModuleEventKind::Rebase;
        break;
    }
    record.begin = event.base;
    record.end = event.end;
    record.newBase = event.newBase;
    journalAppend(record);
}

void
RecoverySupervisor::journalAppend(const JournalRecord &record)
{
    _journal.append(record);
    _live.apply(record);
    ++_stats.journalAppends;
    if (_config.compactEveryRecords != 0 &&
        _journal.recordCount() >= _config.compactEveryRecords)
        compactNow();
}

RecoveredState
RecoverySupervisor::foldDurable(JournalReadResult &tail) const
{
    // A damaged snapshot degrades to the empty state — the journal
    // tail still holds whatever was appended since the last
    // compaction.
    RecoveredState state = loadSnapshot(_snapshot).state;
    tail = readJournal(_journal.bytes());
    for (const auto &record : tail.records)
        state.apply(record);
    return state;
}

void
RecoverySupervisor::compactNow()
{
    if (_liveEdits != _journal.edits()) {
        // The journal bytes changed behind the live fold (a torn
        // tail, a truncation, a direct edit): rebuild it from what is
        // durable.
        JournalReadResult tail;
        _live = foldDurable(tail);
    }
    _stats.journalBytes = _journal.bytes().size();
    _snapshot = serializeSnapshot(_live, std::move(_snapshot));
    _journal.clear();
    _liveEdits = _journal.edits();
    ++_stats.compactions;
    _stats.snapshotBytes = _snapshot.size();
    if (!_config.snapshotPath.empty())
        writeFileAtomic(_config.snapshotPath, _snapshot.data(),
                        _snapshot.size());
}

} // namespace flowguard::recovery

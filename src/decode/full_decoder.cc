#include "decode/full_decoder.hh"

#include <algorithm>

#include "telemetry/telemetry.hh"

namespace flowguard::decode {

using cpu::BranchKind;
using isa::Instruction;
using isa::Opcode;

namespace {

/**
 * Reads a packet-layer decode in stream order, as the walk consumes
 * it: each step's outcomes oldest first, then the step. Where trace
 * was lost before a step (or after the last one), the outcomes kept
 * ahead of the loss come first, then the loss, then the rest.
 */
class StepCursor
{
  public:
    enum class At : uint8_t { Bit, Loss, Step, End };

    /** Positioned at `point`'s place in the steps. */
    StepCursor(const FastDecodeResult &flow,
               const detail::WalkPoint &point)
        : _flow(flow), _step(point.step), _bit(point.bit),
          _lossPassed(point.lossPassed)
    {
        refresh();
    }

    /** Stores the cursor's place into `point`. */
    void
    save(detail::WalkPoint &point) const
    {
        point.step = _step;
        point.bit = _bit;
        point.lossPassed = _lossPassed;
    }

    /** True when nothing has been read since step `index`. */
    bool
    justPast(size_t index) const
    {
        const FlowStep &step = _flow.steps[index];
        return _step == index + 1 &&
               _bit == step.tntOffset + step.tntLength && !_lossPassed;
    }

    /** The next step to read (steps.size() in the trailing outcomes). */
    size_t stepIndex() const { return _step; }

    At at() const { return _at; }
    bool done() const { return _at == At::End; }
    bool atLoss() const { return _at == At::Loss; }
    bool taken() const { return _flow.tntBits[_bit] != 0; }
    const FlowStep &step() const { return _flow.steps[_step]; }

    /** True when the next item is a step of `kind`. */
    bool
    atStep(StepKind kind) const
    {
        return _at == At::Step && step().kind == kind;
    }

    void
    consume()
    {
        switch (_at) {
          case At::Bit:
            if (++_bit < _bitsEnd)
                return;     // still inside the same run of outcomes
            break;
          case At::Loss:
            _lossPassed = true;
            break;
          case At::Step:
            ++_step;
            _lossPassed = false;
            break;
          case At::End:
            return;
        }
        refresh();
    }

  private:
    /** Works out the next item; the walk asks for it several times
     *  per instruction it stops at, so it is kept. */
    void
    refresh()
    {
        const bool tail = _step == _flow.steps.size();
        const size_t gap =
            tail ? _flow.trailingOffset : _flow.steps[_step].tntOffset;
        if (_bit < gap) {
            _at = At::Bit;
            _bitsEnd = gap;
            return;
        }
        if (!_lossPassed &&
            (tail ? _flow.lossAtEnd : _flow.steps[_step].lossBefore)) {
            _at = At::Loss;
            return;
        }
        const size_t end = tail ? _flow.tntBits.size()
                                : gap + _flow.steps[_step].tntLength;
        if (_bit < end) {
            _at = At::Bit;
            _bitsEnd = end;
            return;
        }
        _at = tail ? At::End : At::Step;
    }

    const FastDecodeResult &_flow;
    size_t _step;
    size_t _bit;
    /** With _at == Bit, where that run of outcomes ends. */
    size_t _bitsEnd = 0;
    bool _lossPassed = false;
    At _at = At::End;
};

/** A step that names where the walk can (re)start. */
bool
anchors(const FlowStep &step)
{
    return (step.kind == StepKind::Tip || step.kind == StepKind::Pge) &&
           !step.ipSuppressed;
}

/** The first step at or after `from` that anchors (steps.size(): none). */
size_t
firstAnchor(const FastDecodeResult &flow, size_t from)
{
    while (from < flow.steps.size() && !anchors(flow.steps[from]))
        ++from;
    return from;
}

/** Makes `counts` count from `base` on. */
void
rebase(detail::WalkCounts &counts, const detail::WalkCounts &base)
{
    counts.branches -= base.branches;
    counts.instructions -= base.instructions;
    counts.tips -= base.tips;
    counts.losses -= base.losses;
}

/**
 * Empties `result` for a walk of `flow` and sets `start` to where that
 * walk starts: just past the first addressable step after the sync
 * point. IP compression cannot be trusted before a PSB, and the sync
 * step itself is not replayed. Returns false (NoSync) when no step
 * anchors.
 */
bool
beginWalk(FullDecodeResult &result, const isa::Program &program,
          const FastDecodeResult &flow, detail::WalkPoint &start)
{
    result.status = FullDecodeResult::Status::Ok;
    result.branches.clear();
    result.instructionsWalked = 0;
    result.startIp = 0;
    result.error.clear();
    result.overflows = flow.overflows;
    result.resyncs = flow.resyncs;
    result.bytesSkipped = flow.bytesSkipped;
    result.lossBranchIndices.clear();

    const size_t first = firstAnchor(flow, flow.unsyncedSteps);
    if (first == flow.steps.size()) {
        result.status = FullDecodeResult::Status::NoSync;
        result.error = "no PSB-anchored TIP/PGE to start from";
        return false;
    }
    const FlowStep &step = flow.steps[first];
    result.startIp = step.ip;
    start = {};
    start.ip = step.ip;
    start.index = program.instIndexAt(step.ip);
    start.step = first + 1;
    start.bit = step.tntOffset + step.tntLength;
    return true;
}

/** Where a walk notes the PSB records it passes (see WalkMark). */
struct MarkLog
{
    std::span<const detail::PsbRecord> records;
    std::vector<detail::WalkMark> &marks;
};

/**
 * The walk loop: walks `flow` on from `at`, appending to `result`, and
 * leaves `at` where the walk stood at the top of its last iteration.
 * With `log`, notes each record it passes. Returns the TIPs consumed.
 */
uint64_t
walkOn(FullDecodeResult &result, const isa::Program &program,
       const FastDecodeResult &flow, detail::WalkPoint &at,
       MarkLog *log)
{
    StepCursor stream(flow, at);

    // --- run-by-run walk -------------------------------------------------
    bool walking = true;
    auto desync = [&](const char *why) {
        result.status = FullDecodeResult::Status::Desync;
        result.error = why;
        walking = false;
    };

    // Reconstruction past the last packet is unverifiable; stop once
    // every step is consumed. The walk budget is a backstop against
    // pathological direct-branch cycles in malformed programs.
    constexpr uint64_t walk_budget = 50'000'000;
    // The instruction at `ip` and its flat index (no_inst off mapped
    // code). Direct successors come from the link-time table; only a
    // packet's address needs a lookup.
    uint64_t ip = at.ip;
    uint32_t index = at.index;
    uint64_t tips = at.counts.tips;

    const auto counts = [&] {
        return detail::WalkCounts{result.branches.size(),
                                  result.instructionsWalked, tips,
                                  result.lossBranchIndices.size()};
    };
    // A record is passed at the first loop top past its first anchoring
    // step; reached if the walk stands just past that step, at its
    // address, as a fresh walk from the record starts.
    const auto note = [&] {
        while (log->marks.size() < log->records.size()) {
            const detail::PsbRecord &record =
                log->records[log->marks.size()];
            const size_t first = firstAnchor(flow, record.firstStep);
            if (first == flow.steps.size() || stream.stepIndex() <= first)
                return;
            detail::WalkMark mark;
            mark.offset = record.offset;
            mark.reached = stream.justPast(first) &&
                           ip == flow.steps[first].ip &&
                           index == program.instIndexAt(ip);
            mark.counts = counts();
            log->marks.push_back(mark);
        }
    };

    // Resumes the walk at a trace gap: everything up to the next step
    // naming an address was orphaned by the loss, and the anchor
    // itself (like the initial sync) is not replayed. Returns false
    // when the trace ends inside the gap.
    auto reanchor = [&]() -> bool {
        while (!stream.done()) {
            if (stream.at() == StepCursor::At::Step &&
                anchors(stream.step())) {
                result.lossBranchIndices.push_back(
                    result.branches.size());
                ip = stream.step().ip;
                index = program.instIndexAt(ip);
                stream.consume();
                return true;
            }
            stream.consume();
        }
        result.lossBranchIndices.push_back(result.branches.size());
        return false;
    };

    // Where the loop goes on, the walk stands at a top: what follows
    // depends on nothing but the state `at` holds. An iteration the
    // trace ended inside of leaves no top; a walk over a longer trace
    // goes on from the top of that iteration.
    while (walking && !stream.done()) {
        if (log)
            note();
        at.counts = counts();
        at.ip = ip;
        at.index = index;
        stream.save(at);
        if (stream.atLoss()) {
            // Nothing between here and the next addressable packet
            // can be verified; resume the walk on the far side.
            if (!reanchor())
                break;
            continue;
        }
        if (result.instructionsWalked >= walk_budget) {
            desync("instruction walk budget exceeded");
            break;
        }
        if (index == isa::no_inst) {
            result.status = FullDecodeResult::Status::BadFlow;
            result.error = "flow left mapped code";
            break;
        }
        // Counted before the pause handling below, as every
        // instruction of the run would be.
        ++result.instructionsWalked;
        const Instruction *inst = &program.inst(index);

        // Transparent handling of context-switch pauses: a PGD not
        // explained by a syscall instruction must be followed by a PGE
        // resuming exactly where we paused.
        while (stream.atStep(StepKind::Pgd) &&
               inst->op != Opcode::Syscall) {
            stream.consume();
            if (stream.done()) {
                walking = false;
                break;
            }
            if (stream.atLoss())
                break;  // gap swallowed the resume; re-anchor above
            if (!stream.atStep(StepKind::Pge) || stream.step().ip != ip) {
                desync("context resumed at an unexpected address");
                break;
            }
            stream.consume();
        }
        if (!walking)
            break;
        if (stream.atLoss())
            continue;   // resolve the gap before consuming anything

        // The rest of the run reads no trace: the stream now stands
        // where no instruction before the run's end can move it, so
        // jump there. Each skipped instruction is checked against the
        // budget before it is counted, as the loop above would.
        const uint32_t run_end = program.runEnd(index);
        if (run_end != index && !stream.done()) {
            const uint64_t skipped = run_end - index;
            if (result.instructionsWalked + skipped > walk_budget) {
                result.instructionsWalked = walk_budget;
                desync("instruction walk budget exceeded");
                break;
            }
            result.instructionsWalked += skipped;
            index = run_end;
            ip = program.instAddr(index);
            inst = &program.inst(index);
        }
        const isa::InstLinks &links = program.instLinks(index);
        const uint64_t next = ip + isa::instSize(inst->op);

        // A case that finds the trace consumed just breaks: the loop
        // ends there.
        switch (inst->op) {
          case Opcode::Jcc: {
            if (stream.done())
                break;
            if (stream.at() != StepCursor::At::Bit) {
                desync("expected TNT outcome at conditional branch");
                break;
            }
            const bool taken = stream.taken();
            stream.consume();
            result.branches.push_back(
                {taken ? BranchKind::CondTaken
                       : BranchKind::CondNotTaken,
                 ip, taken ? inst->target : next});
            ip = taken ? inst->target : next;
            index = taken ? links.target : links.next;
            break;
          }

          case Opcode::Jmp:
            result.branches.push_back(
                {BranchKind::DirectJump, ip, inst->target});
            ip = inst->target;
            index = links.target;
            break;

          case Opcode::Call:
            result.branches.push_back(
                {BranchKind::DirectCall, ip, inst->target});
            ip = inst->target;
            index = links.target;
            break;

          case Opcode::JmpInd:
          case Opcode::CallInd:
          case Opcode::Ret: {
            if (stream.done())
                break;
            if (!stream.atStep(StepKind::Tip) ||
                stream.step().ipSuppressed) {
                desync("expected TIP at indirect branch");
                break;
            }
            const uint64_t target = stream.step().ip;
            stream.consume();
            BranchKind kind = inst->op == Opcode::JmpInd
                ? BranchKind::IndirectJump
                : inst->op == Opcode::CallInd
                    ? BranchKind::IndirectCall
                    : BranchKind::Return;
            result.branches.push_back({kind, ip, target});
            ++tips;
            ip = target;
            index = program.instIndexAt(ip);
            break;
          }

          case Opcode::Syscall: {
            if (stream.done())
                break;
            // FUP at the syscall, PGD entering the kernel.
            if (!stream.atStep(StepKind::Fup) || stream.step().ip != ip) {
                desync("expected FUP at syscall");
                break;
            }
            stream.consume();
            if (stream.atLoss())
                break;  // gap swallowed the PGD; re-anchor above
            if (!stream.atStep(StepKind::Pgd)) {
                desync("expected TIP.PGD after syscall FUP");
                break;
            }
            stream.consume();
            result.branches.push_back(
                {BranchKind::SyscallEntry, ip, 0});
            if (stream.done())
                break;  // trace ends inside the kernel
            if (stream.atLoss())
                break;  // SyscallExit unobserved; re-anchor above
            if (!stream.atStep(StepKind::Pge)) {
                desync("expected TIP.PGE resuming from syscall");
                break;
            }
            const uint64_t resume = stream.step().ip;
            stream.consume();
            result.branches.push_back(
                {BranchKind::SyscallExit, ip, resume});
            ip = resume;
            index = program.instIndexAt(ip);
            break;
          }

          case Opcode::Halt:
            walking = false;
            break;

          default:
            // Only a run that leaves the flat order ends here.
            ip = next;
            index = links.next;
            break;
        }
    }
    return tips;
}

/** Charges and traces a finished walk. */
void
finishWalk(const FullDecodeResult &result, uint64_t tips,
           cpu::CycleAccount *account, telemetry::Telemetry *telemetry,
           uint64_t cr3, uint64_t span_begin)
{
    if (account) {
        account->decode +=
            static_cast<double>(result.instructionsWalked) *
                cpu::cost::sw_full_decode_per_inst +
            static_cast<double>(result.branches.size()) *
                cpu::cost::sw_full_decode_per_branch +
            static_cast<double>(tips) *
                cpu::cost::sw_full_decode_per_tip;
    }
    if (telemetry) {
        telemetry->completeSpan(telemetry::SpanKind::FullDecode, cr3,
                                0, span_begin, telemetry->now(), 0,
                                result.instructionsWalked,
                                result.branches.size());
    }
}

} // namespace

const FullDecodeResult &
FlowWalk::walk(const isa::Program &program, const TraceCursor &cursor,
               cpu::CycleAccount *account, telemetry::Telemetry *telemetry,
               uint64_t cr3)
{
    const uint64_t span_begin = telemetry ? telemetry->now() : 0;
    const FastDecodeResult &flow = cursor.window();
    if (!resume(cursor)) {
        _marks.clear();
        _resumable = false;
        if (!beginWalk(_result, program, flow, _top))
            return _result;
    }
    MarkLog log{cursor.records(), _marks};
    const uint64_t tips = walkOn(_result, program, flow, _top, &log);
    _origin = cursor.origin();
    _resumable = _result.ok();
    finishWalk(_result, tips, account, telemetry, cr3, span_begin);
    return _result;
}

bool
FlowWalk::resume(const TraceCursor &cursor)
{
    const std::span<const detail::PsbRecord> records = cursor.records();
    const TraceCursor::Origin &origin = cursor.origin();
    if (!_resumable || records.empty() ||
        origin.coldStart != _origin.coldStart)
        return false;
    // A fresh walk of the window starts where the kept walk stood at
    // its anchor's mark; everything the kept walk did from there on is
    // that walk's.
    const auto mark = std::ranges::find(_marks, records.front().offset,
                                        &detail::WalkMark::offset);
    if (mark == _marks.end() || !mark->reached)
        return false;
    const detail::WalkCounts base = mark->counts;
    _marks.erase(_marks.begin(), mark);
    for (detail::WalkMark &kept : _marks)
        rebase(kept.counts, base);

    // Roll back to the top of the last iteration, which the trace may
    // have ended inside of, then drop what precedes the mark.
    FullDecodeResult &result = _result;
    result.branches.resize(_top.counts.branches);
    result.lossBranchIndices.resize(_top.counts.losses);
    result.branches.erase(result.branches.begin(),
                          result.branches.begin() +
                              static_cast<ptrdiff_t>(base.branches));
    result.lossBranchIndices.erase(
        result.lossBranchIndices.begin(),
        result.lossBranchIndices.begin() +
            static_cast<ptrdiff_t>(base.losses));
    for (uint64_t &loss : result.lossBranchIndices)
        loss -= base.branches;
    rebase(_top.counts, base);
    result.instructionsWalked = _top.counts.instructions;
    // The cursor has dropped steps and outcomes from its front since.
    _top.step -= origin.steps - _origin.steps;
    _top.bit -= origin.bits - _origin.bits;

    const FastDecodeResult &flow = cursor.window();
    result.startIp = flow.steps[firstAnchor(flow, flow.unsyncedSteps)].ip;
    result.overflows = flow.overflows;
    result.resyncs = flow.resyncs;
    result.bytesSkipped = flow.bytesSkipped;
    return true;
}

FullDecodeResult
decodeInstructionFlow(const isa::Program &program,
                      const FastDecodeResult &flow,
                      cpu::CycleAccount *account,
                      telemetry::Telemetry *telemetry, uint64_t cr3)
{
    const uint64_t span_begin = telemetry ? telemetry->now() : 0;
    FullDecodeResult result;
    detail::WalkPoint at;
    if (beginWalk(result, program, flow, at)) {
        const uint64_t tips = walkOn(result, program, flow, at, nullptr);
        finishWalk(result, tips, account, telemetry, cr3, span_begin);
    }
    return result;
}

} // namespace flowguard::decode

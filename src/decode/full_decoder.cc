#include "decode/full_decoder.hh"

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

    /** Positioned just past step `from`. */
    StepCursor(const FastDecodeResult &flow, size_t from)
        : _flow(flow), _step(from + 1),
          _bit(flow.steps[from].tntOffset + flow.steps[from].tntLength)
    {}

    At
    at() const
    {
        const bool tail = _step == _flow.steps.size();
        const size_t gap =
            tail ? _flow.trailingOffset : _flow.steps[_step].tntOffset;
        if (_bit < gap)
            return At::Bit;
        if (!_lossPassed &&
            (tail ? _flow.lossAtEnd : _flow.steps[_step].lossBefore))
            return At::Loss;
        const size_t end = tail ? _flow.tntBits.size()
                                : gap + _flow.steps[_step].tntLength;
        if (_bit < end)
            return At::Bit;
        return tail ? At::End : At::Step;
    }

    bool done() const { return at() == At::End; }
    bool atLoss() const { return at() == At::Loss; }
    bool taken() const { return _flow.tntBits[_bit] != 0; }
    const FlowStep &step() const { return _flow.steps[_step]; }

    /** True when the next item is a step of `kind`. */
    bool
    atStep(StepKind kind) const
    {
        return at() == At::Step && step().kind == kind;
    }

    void
    consume()
    {
        switch (at()) {
          case At::Bit:
            ++_bit;
            break;
          case At::Loss:
            _lossPassed = true;
            break;
          case At::Step:
            ++_step;
            _lossPassed = false;
            break;
          case At::End:
            break;
        }
    }

  private:
    const FastDecodeResult &_flow;
    size_t _step;
    size_t _bit;
    bool _lossPassed = false;
};

/** A step that names where the walk can (re)start. */
bool
anchors(const FlowStep &step)
{
    return (step.kind == StepKind::Tip || step.kind == StepKind::Pge) &&
           !step.ipSuppressed;
}

} // namespace

FullDecodeResult
decodeInstructionFlow(const isa::Program &program,
                      const FastDecodeResult &flow,
                      cpu::CycleAccount *account,
                      telemetry::Telemetry *telemetry, uint64_t cr3)
{
    const uint64_t span_begin = telemetry ? telemetry->now() : 0;
    FullDecodeResult result;
    result.overflows = flow.overflows;
    result.resyncs = flow.resyncs;
    result.bytesSkipped = flow.bytesSkipped;

    // IP compression cannot be trusted before a PSB, and the sync
    // step itself is not replayed.
    size_t start = flow.unsyncedSteps;
    while (start < flow.steps.size() && !anchors(flow.steps[start]))
        ++start;
    if (start == flow.steps.size()) {
        result.status = FullDecodeResult::Status::NoSync;
        result.error = "no PSB-anchored TIP/PGE to start from";
        return result;
    }
    result.startIp = flow.steps[start].ip;
    StepCursor stream(flow, start);

    // --- instruction-by-instruction walk --------------------------------
    bool walking = true;
    auto desync = [&](const std::string &why) {
        result.status = FullDecodeResult::Status::Desync;
        result.error = why;
        walking = false;
    };

    // Reconstruction past the last packet is unverifiable; stop once
    // every step is consumed. The walk budget is a backstop against
    // pathological direct-branch cycles in malformed programs.
    constexpr uint64_t walk_budget = 50'000'000;
    uint64_t ip = result.startIp;

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
                stream.consume();
                return true;
            }
            stream.consume();
        }
        result.lossBranchIndices.push_back(result.branches.size());
        return false;
    };

    while (walking && !stream.done()) {
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
        const Instruction *inst = program.fetch(ip);
        if (!inst) {
            result.status = FullDecodeResult::Status::BadFlow;
            result.error = "flow left mapped code";
            break;
        }
        ++result.instructionsWalked;
        const uint64_t next = ip + isa::instSize(inst->op);

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
            break;
          }

          case Opcode::Jmp:
            result.branches.push_back(
                {BranchKind::DirectJump, ip, inst->target});
            ip = inst->target;
            break;

          case Opcode::Call:
            result.branches.push_back(
                {BranchKind::DirectCall, ip, inst->target});
            ip = inst->target;
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
            ip = target;
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
            break;
          }

          case Opcode::Halt:
            walking = false;
            break;

          default:
            ip = next;
            break;
        }
    }

    if (account) {
        uint64_t tips = 0;
        for (const auto &branch : result.branches) {
            tips += branch.kind == BranchKind::IndirectJump ||
                    branch.kind == BranchKind::IndirectCall ||
                    branch.kind == BranchKind::Return;
        }
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
    return result;
}

FullDecodeResult
decodeInstructionFlow(const isa::Program &program,
                      std::span<const uint8_t> data,
                      cpu::CycleAccount *account,
                      telemetry::Telemetry *telemetry, uint64_t cr3)
{
    return decodeInstructionFlow(program, decodePacketLayer(data),
                                 account, telemetry, cr3);
}

} // namespace flowguard::decode

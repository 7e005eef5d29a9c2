#include "cpu/cpu.hh"

#include <algorithm>
#include <iterator>

namespace flowguard::cpu {

using isa::Cond;
using isa::Instruction;
using isa::Opcode;

uint64_t
Cpu::BranchStats::total() const
{
    uint64_t sum = 0;
    for (uint64_t count : byKind)
        sum += count;
    return sum;
}

Cpu::Cpu(const isa::Program &prog)
    : _prog(prog)
{
    reset();
}

void
Cpu::reset()
{
    _mem.clear();
    _regs.fill(0);
    for (const auto &image : _prog.initialData())
        _mem.writeBytes(image.addr, image.bytes);
    setPc(_prog.entry());
    _regs[sp_reg] = _prog.stackTop();
    _cmp = 0;
    _instCount = 0;
    _branchStats = BranchStats{};
    _fault = FaultInfo{};
    _exitCode = 0;
    _state = Stop::Running;
}

void
Cpu::push64(uint64_t value)
{
    _regs[sp_reg] -= 8;
    _mem.write64(_regs[sp_reg], value);
}

uint64_t
Cpu::pop64()
{
    uint64_t value = _mem.read64(_regs[sp_reg]);
    _regs[sp_reg] += 8;
    return value;
}

void
Cpu::emitBranch(BranchKind kind, uint64_t source, uint64_t target)
{
    ++_branchStats[kind];
    BranchEvent event{kind, source, target, _prog.cr3()};
    for (TraceSink *sink : _sinks)
        sink->onBranch(event);
}

Cpu::Stop
Cpu::raiseFault(FaultInfo::Kind kind, uint64_t addr)
{
    _fault = {kind, _pc, addr};
    _state = Stop::Fault;
    return _state;
}

namespace {

uint64_t
alu(isa::AluOp op, uint64_t a, uint64_t b)
{
    switch (op) {
      case isa::AluOp::Add: return a + b;
      case isa::AluOp::Sub: return a - b;
      case isa::AluOp::Mul: return a * b;
      case isa::AluOp::Xor: return a ^ b;
      case isa::AluOp::And: return a & b;
      case isa::AluOp::Or:  return a | b;
      case isa::AluOp::Shl: return a << (b & 63);
      case isa::AluOp::Shr: return a >> (b & 63);
    }
    return 0;
}

int
compare(uint64_t a, uint64_t b)
{
    return a < b ? -1 : (a == b ? 0 : 1);
}

} // namespace

inline bool
Cpu::evalCond(Cond cond) const
{
    // Whether each condition holds, by _cmp + 1 (less, equal,
    // greater): one load instead of a second dispatch per Jcc.
    static constexpr bool holds[][3] = {
        {false, true, false},   // Eq
        {true, false, true},    // Ne
        {true, false, false},   // Lt
        {false, true, true},    // Ge
        {false, false, true},   // Gt
        {true, true, false},    // Le
    };
    static_assert(std::size(holds) == static_cast<size_t>(Cond::Le) + 1,
                  "one row per condition");
    return holds[static_cast<size_t>(cond)][_cmp + 1];
}

[[gnu::always_inline]] inline bool
Cpu::execute(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::Alu:
        _regs[inst.rd] = alu(inst.aluOp, _regs[inst.rd], _regs[inst.rs]);
        break;
      case Opcode::AluImm:
        _regs[inst.rd] = alu(inst.aluOp, _regs[inst.rd],
                             static_cast<uint64_t>(inst.imm));
        break;
      case Opcode::MovImm:
        _regs[inst.rd] = static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::MovReg:
        _regs[inst.rd] = _regs[inst.rs];
        break;
      case Opcode::Load:
        _regs[inst.rd] =
            _mem.read64(_regs[inst.rs] + static_cast<uint64_t>(inst.imm));
        break;
      case Opcode::Store: {
        const uint64_t addr = storeAddr(inst);
        if (_prog.isCode(addr)) [[unlikely]]
            return false;
        _mem.write64(addr, _regs[inst.rs]);
        break;
      }
      case Opcode::Cmp:
        _cmp = compare(_regs[inst.rd], _regs[inst.rs]);
        break;
      case Opcode::CmpImm:
        _cmp = compare(_regs[inst.rd], static_cast<uint64_t>(inst.imm));
        break;
      default:
        // Nop; run() and doStep() bring no other opcode here.
        break;
    }
    return true;
}

[[gnu::always_inline]] inline Cpu::Stop
Cpu::doStep()
{
    if (_inst == isa::no_inst)
        return raiseFault(FaultInfo::Kind::BadFetch, _pc);

    const Instruction &inst = _prog.inst(_inst);
    const isa::InstLinks links = _prog.instLinks(_inst);
    ++_instCount;
    const uint64_t pc = _pc;
    const uint64_t next = pc + isa::instSize(inst.op);

    // Moves to the next instruction or to a direct branch's target,
    // both resolved at link time.
    auto fallThrough = [&] {
        _pc = next;
        _inst = links.next;
    };
    auto jumpDirect = [&] {
        _pc = inst.target;
        _inst = links.target;
    };

    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Alu:
      case Opcode::AluImm:
      case Opcode::MovImm:
      case Opcode::MovReg:
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::Cmp:
      case Opcode::CmpImm:
        if (!execute(inst))
            return raiseFault(FaultInfo::Kind::CodeWrite, storeAddr(inst));
        fallThrough();
        break;

      case Opcode::Jcc:
        if (evalCond(inst.cond)) {
            emitBranch(BranchKind::CondTaken, pc, inst.target);
            jumpDirect();
        } else {
            emitBranch(BranchKind::CondNotTaken, pc, next);
            fallThrough();
        }
        break;

      case Opcode::Jmp:
        emitBranch(BranchKind::DirectJump, pc, inst.target);
        jumpDirect();
        break;

      case Opcode::JmpInd: {
        uint64_t target = _regs[inst.rs];
        const uint32_t index = _prog.instIndexAt(target);
        if (index == isa::no_inst)
            return raiseFault(FaultInfo::Kind::BadBranch, target);
        emitBranch(BranchKind::IndirectJump, pc, target);
        _pc = target;
        _inst = index;
        break;
      }

      case Opcode::Call:
        push64(next);
        emitBranch(BranchKind::DirectCall, pc, inst.target);
        jumpDirect();
        break;

      case Opcode::CallInd: {
        uint64_t target = _regs[inst.rs];
        const uint32_t index = _prog.instIndexAt(target);
        if (index == isa::no_inst)
            return raiseFault(FaultInfo::Kind::BadBranch, target);
        push64(next);
        emitBranch(BranchKind::IndirectCall, pc, target);
        _pc = target;
        _inst = index;
        break;
      }

      case Opcode::Ret: {
        uint64_t target = pop64();
        const uint32_t index = _prog.instIndexAt(target);
        if (index == isa::no_inst)
            return raiseFault(FaultInfo::Kind::BadBranch, target);
        emitBranch(BranchKind::Return, pc, target);
        _pc = target;
        _inst = index;
        break;
      }

      case Opcode::Syscall:
        return doSyscall(inst.imm, next, links.next);

      case Opcode::Halt:
        _state = Stop::Halted;
        return _state;
    }

    return Stop::Running;
}

Cpu::Stop
Cpu::doSyscall(int64_t number, uint64_t next, uint32_t next_inst)
{
    const uint64_t pc = _pc;
    emitBranch(BranchKind::SyscallEntry, pc, 0);
    SyscallResult result;
    if (_handler)
        result = _handler->onSyscall(*this, number);
    switch (result.action) {
      case SyscallResult::Action::Continue:
        _regs[0] = static_cast<uint64_t>(result.retval);
        _pc = next;
        _inst = next_inst;
        emitBranch(BranchKind::SyscallExit, pc, _pc);
        break;
      case SyscallResult::Action::PcSet:
        // Handler installed pc (sigreturn) through setPc(), which
        // re-resolved the index; resume there.
        emitBranch(BranchKind::SyscallExit, pc, _pc);
        if (_inst == isa::no_inst)
            return raiseFault(FaultInfo::Kind::BadBranch, _pc);
        break;
      case SyscallResult::Action::Exit:
        _exitCode = result.retval;
        _state = Stop::Halted;
        return _state;
      case SyscallResult::Action::Kill:
        _state = Stop::Killed;
        return _state;
    }
    return Stop::Running;
}

Cpu::Stop
Cpu::run(uint64_t max_insts)
{
    if (_state != Stop::Running)
        return _state;
    uint64_t left = max_insts;
    while (left > 0) {
        if (_inst == isa::no_inst) [[unlikely]]
            return raiseFault(FaultInfo::Kind::BadFetch, _pc);
        // Every instruction in [_inst, runEnd) falls through to the
        // next flat index and none is a CoFI: retire as much of the
        // run as the budget allows in one loop, with no per-instruction
        // pc, count or budget bookkeeping.
        const uint32_t first = _inst;
        const Instruction *run = &_prog.inst(first);
        const uint32_t count = static_cast<uint32_t>(
            std::min<uint64_t>(_prog.runEnd(first) - first, left));
        for (uint32_t k = 0; k < count; ++k) {
            if (!execute(run[k])) [[unlikely]] {
                // A Store into code: the fault names the store, as a
                // step at a time would.
                _instCount += k + 1;
                _inst = first + k;
                _pc = _prog.instAddr(_inst);
                return raiseFault(FaultInfo::Kind::CodeWrite,
                                  storeAddr(run[k]));
            }
        }
        _instCount += count;
        left -= count;
        _inst = first + count;
        _pc = _prog.instAddr(_inst);
        if (left == 0)
            break;
        // The instruction that ends the run: a CoFI, a Halt, or one
        // whose fall-through leaves flat order.
        --left;
        const Stop stop = doStep();
        if (stop != Stop::Running)
            return stop;
    }
    return Stop::InstLimit;
}

Cpu::Stop
Cpu::step()
{
    if (_state != Stop::Running)
        return _state;
    return doStep();
}

} // namespace flowguard::cpu

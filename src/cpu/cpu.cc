#include "cpu/cpu.hh"

#include "support/logging.hh"

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

bool
Cpu::evalCond(Cond cond) const
{
    switch (cond) {
      case Cond::Eq: return _cmp == 0;
      case Cond::Ne: return _cmp != 0;
      case Cond::Lt: return _cmp < 0;
      case Cond::Ge: return _cmp >= 0;
      case Cond::Gt: return _cmp > 0;
      case Cond::Le: return _cmp <= 0;
    }
    fg_panic("bad condition");
}

Cpu::Stop
Cpu::run(uint64_t max_insts)
{
    if (_state != Stop::Running)
        return _state;
    for (uint64_t i = 0; i < max_insts; ++i) {
        Stop s = doStep();
        if (s != Stop::Running)
            return s;
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

Cpu::Stop
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
        fallThrough();
        break;

      case Opcode::Alu: {
        uint64_t a = _regs[inst.rd];
        uint64_t b = _regs[inst.rs];
        uint64_t r = 0;
        switch (inst.aluOp) {
          case isa::AluOp::Add: r = a + b; break;
          case isa::AluOp::Sub: r = a - b; break;
          case isa::AluOp::Mul: r = a * b; break;
          case isa::AluOp::Xor: r = a ^ b; break;
          case isa::AluOp::And: r = a & b; break;
          case isa::AluOp::Or:  r = a | b; break;
          case isa::AluOp::Shl: r = a << (b & 63); break;
          case isa::AluOp::Shr: r = a >> (b & 63); break;
        }
        _regs[inst.rd] = r;
        fallThrough();
        break;
      }

      case Opcode::AluImm: {
        uint64_t a = _regs[inst.rd];
        uint64_t b = static_cast<uint64_t>(inst.imm);
        uint64_t r = 0;
        switch (inst.aluOp) {
          case isa::AluOp::Add: r = a + b; break;
          case isa::AluOp::Sub: r = a - b; break;
          case isa::AluOp::Mul: r = a * b; break;
          case isa::AluOp::Xor: r = a ^ b; break;
          case isa::AluOp::And: r = a & b; break;
          case isa::AluOp::Or:  r = a | b; break;
          case isa::AluOp::Shl: r = a << (b & 63); break;
          case isa::AluOp::Shr: r = a >> (b & 63); break;
        }
        _regs[inst.rd] = r;
        fallThrough();
        break;
      }

      case Opcode::MovImm:
        _regs[inst.rd] = static_cast<uint64_t>(inst.imm);
        fallThrough();
        break;

      case Opcode::MovReg:
        _regs[inst.rd] = _regs[inst.rs];
        fallThrough();
        break;

      case Opcode::Load:
        _regs[inst.rd] =
            _mem.read64(_regs[inst.rs] +
                        static_cast<uint64_t>(inst.imm));
        fallThrough();
        break;

      case Opcode::Store: {
        uint64_t addr =
            _regs[inst.rd] + static_cast<uint64_t>(inst.imm);
        if (_prog.isCode(addr))
            return raiseFault(FaultInfo::Kind::CodeWrite, addr);
        _mem.write64(addr, _regs[inst.rs]);
        fallThrough();
        break;
      }

      case Opcode::Cmp: {
        uint64_t a = _regs[inst.rd];
        uint64_t b = _regs[inst.rs];
        _cmp = a < b ? -1 : (a == b ? 0 : 1);
        fallThrough();
        break;
      }

      case Opcode::CmpImm: {
        uint64_t a = _regs[inst.rd];
        uint64_t b = static_cast<uint64_t>(inst.imm);
        _cmp = a < b ? -1 : (a == b ? 0 : 1);
        fallThrough();
        break;
      }

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

      case Opcode::Syscall: {
        emitBranch(BranchKind::SyscallEntry, pc, 0);
        SyscallResult result;
        if (_handler)
            result = _handler->onSyscall(*this, inst.imm);
        switch (result.action) {
          case SyscallResult::Action::Continue:
            _regs[0] = static_cast<uint64_t>(result.retval);
            fallThrough();
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
        break;
      }

      case Opcode::Halt:
        _state = Stop::Halted;
        return _state;
    }

    return Stop::Running;
}

} // namespace flowguard::cpu

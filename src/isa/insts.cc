#include "isa/insts.hh"

#include <sstream>

#include "support/logging.hh"

namespace flowguard::isa {

bool
Instruction::isCofi() const
{
    switch (op) {
      case Opcode::Jcc:
      case Opcode::Jmp:
      case Opcode::JmpInd:
      case Opcode::Call:
      case Opcode::CallInd:
      case Opcode::Ret:
      case Opcode::Syscall:
        return true;
      default:
        return false;
    }
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::Alu: return "alu";
      case Opcode::AluImm: return "alui";
      case Opcode::MovImm: return "movi";
      case Opcode::MovReg: return "mov";
      case Opcode::Load: return "load";
      case Opcode::Store: return "store";
      case Opcode::Cmp: return "cmp";
      case Opcode::CmpImm: return "cmpi";
      case Opcode::Jcc: return "jcc";
      case Opcode::Jmp: return "jmp";
      case Opcode::JmpInd: return "jmp*";
      case Opcode::Call: return "call";
      case Opcode::CallInd: return "call*";
      case Opcode::Ret: return "ret";
      case Opcode::Syscall: return "syscall";
      case Opcode::Halt: return "halt";
    }
    fg_panic("unknown opcode ", static_cast<int>(op));
}

const char *
aluOpName(AluOp op)
{
    switch (op) {
      case AluOp::Add: return "add";
      case AluOp::Sub: return "sub";
      case AluOp::Mul: return "mul";
      case AluOp::Xor: return "xor";
      case AluOp::And: return "and";
      case AluOp::Or: return "or";
      case AluOp::Shl: return "shl";
      case AluOp::Shr: return "shr";
    }
    fg_panic("unknown alu op ", static_cast<int>(op));
}

const char *
condName(Cond cond)
{
    switch (cond) {
      case Cond::Eq: return "eq";
      case Cond::Ne: return "ne";
      case Cond::Lt: return "lt";
      case Cond::Ge: return "ge";
      case Cond::Gt: return "gt";
      case Cond::Le: return "le";
    }
    fg_panic("unknown cond ", static_cast<int>(cond));
}

std::string
disassemble(const Instruction &inst, uint64_t pc)
{
    std::ostringstream oss;
    oss << std::hex << "0x" << pc << std::dec << ": ";
    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Halt:
        oss << opcodeName(inst.op);
        break;
      case Opcode::Alu:
        oss << aluOpName(inst.aluOp) << " r" << int(inst.rd)
            << ", r" << int(inst.rs);
        break;
      case Opcode::AluImm:
        oss << aluOpName(inst.aluOp) << " r" << int(inst.rd)
            << ", $" << inst.imm;
        break;
      case Opcode::MovImm:
        oss << "movi r" << int(inst.rd) << ", $0x" << std::hex
            << inst.imm;
        break;
      case Opcode::MovReg:
        oss << "mov r" << int(inst.rd) << ", r" << int(inst.rs);
        break;
      case Opcode::Load:
        oss << "load r" << int(inst.rd) << ", [r" << int(inst.rs)
            << (inst.imm >= 0 ? "+" : "") << inst.imm << "]";
        break;
      case Opcode::Store:
        oss << "store [r" << int(inst.rd)
            << (inst.imm >= 0 ? "+" : "") << inst.imm << "], r"
            << int(inst.rs);
        break;
      case Opcode::Cmp:
        oss << "cmp r" << int(inst.rd) << ", r" << int(inst.rs);
        break;
      case Opcode::CmpImm:
        oss << "cmp r" << int(inst.rd) << ", $" << inst.imm;
        break;
      case Opcode::Jcc:
        oss << "j" << condName(inst.cond) << " 0x" << std::hex
            << inst.target;
        break;
      case Opcode::Jmp:
        oss << "jmp 0x" << std::hex << inst.target;
        break;
      case Opcode::JmpInd:
        oss << "jmp *r" << int(inst.rs);
        break;
      case Opcode::Call:
        oss << "call 0x" << std::hex << inst.target;
        break;
      case Opcode::CallInd:
        oss << "call *r" << int(inst.rs);
        break;
      case Opcode::Ret:
        oss << "ret";
        break;
      case Opcode::Syscall:
        oss << "syscall $" << inst.imm;
        break;
    }
    return oss.str();
}

} // namespace flowguard::isa

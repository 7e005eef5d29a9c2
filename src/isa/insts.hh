/**
 * @file
 * The synthetic instruction set.
 *
 * FlowGuard's problem statement is defined entirely by the control-flow
 * instruction taxonomy of Table 3 in the paper (direct vs. conditional
 * vs. indirect branches, near returns, far transfers). This ISA is a
 * minimal RISC-like set that reproduces exactly that taxonomy, plus
 * enough data movement for real programs — and real exploits — to run:
 * CALL pushes a return address to an in-memory stack that STORE can
 * overwrite, which is what makes ROP executable in the simulator.
 *
 * Instructions have variable byte sizes (like x86) so that addresses,
 * IP compression in TIP packets, and gadget offsets are non-trivial.
 */

#ifndef FLOWGUARD_ISA_INSTS_HH
#define FLOWGUARD_ISA_INSTS_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace flowguard::isa {

/** Number of general-purpose registers (r0..r15). */
constexpr int num_regs = 16;

/** r0..r5 carry call arguments (r0 also carries return values). */
constexpr int num_arg_regs = 6;

/** r15 is reserved as the PLT scratch register by the loader. */
constexpr int plt_scratch_reg = 15;

/** r14 is the stack pointer by convention (CALL/RET use it). */
constexpr int sp_reg = 14;

/** Opcodes. The CoFI subset mirrors Table 3 of the paper. */
enum class Opcode : uint8_t {
    Nop,
    Alu,        ///< rd = rd <op> rs
    AluImm,     ///< rd = rd <op> imm
    MovImm,     ///< rd = imm (imm may be a code/data address)
    MovReg,     ///< rd = rs
    Load,       ///< rd = mem64[rs + imm]
    Store,      ///< mem64[rd + imm] = rs
    Cmp,        ///< flags = compare(rd, rs)
    CmpImm,     ///< flags = compare(rd, imm)
    Jcc,        ///< conditional direct branch (CoFI: TNT)
    Jmp,        ///< unconditional direct branch (CoFI: no packet)
    JmpInd,     ///< indirect branch via rs (CoFI: TIP)
    Call,       ///< direct call (CoFI: no packet)
    CallInd,    ///< indirect call via rs (CoFI: TIP)
    Ret,        ///< near return (CoFI: TIP)
    Syscall,    ///< far transfer to the kernel (imm = syscall number)
    Halt,       ///< stop the hart
};

/** ALU operations for Opcode::Alu / Opcode::AluImm. */
enum class AluOp : uint8_t { Add, Sub, Mul, Xor, And, Or, Shl, Shr };

/** Branch conditions for Opcode::Jcc, evaluated against CPU flags. */
enum class Cond : uint8_t { Eq, Ne, Lt, Ge, Gt, Le };

/**
 * A decoded instruction. `target` is an absolute code address for
 * direct branches (filled in by the loader); `imm` is the immediate /
 * displacement / syscall number.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    AluOp aluOp = AluOp::Add;
    Cond cond = Cond::Eq;
    uint8_t rd = 0;
    uint8_t rs = 0;
    int64_t imm = 0;
    uint64_t target = 0;

    /** True for every control-flow instruction (CoFI). */
    bool isCofi() const;

    /** True for indirect jmp/call and ret — the TIP-producing set. */
    bool isIndirect() const;

    /** True for Jcc — the TNT-producing set. */
    bool isConditional() const;

    /** True if execution cannot fall through (jmp/ret/halt). */
    bool endsFlow() const;
};

namespace detail {

/** Encoded byte sizes, indexed by Opcode. */
inline constexpr uint8_t inst_sizes[] = {
    1,  // Nop
    3,  // Alu
    4,  // AluImm
    6,  // MovImm
    2,  // MovReg
    4,  // Load
    4,  // Store
    2,  // Cmp
    4,  // CmpImm
    2,  // Jcc
    5,  // Jmp
    3,  // JmpInd
    5,  // Call
    3,  // CallInd
    1,  // Ret
    2,  // Syscall
    1,  // Halt
};
static_assert(sizeof inst_sizes == static_cast<size_t>(Opcode::Halt) + 1,
              "one size per opcode");

} // namespace detail

/** Encoded byte size of an instruction with the given opcode. */
inline int
instSize(Opcode op)
{
    return detail::inst_sizes[static_cast<size_t>(op)];
}

/** Mnemonic for an opcode. */
const char *opcodeName(Opcode op);

/** Mnemonic for an ALU operation. */
const char *aluOpName(AluOp op);

/** Mnemonic for a branch condition. */
const char *condName(Cond cond);

/** One-line disassembly of `inst` at address `pc`. */
std::string disassemble(const Instruction &inst, uint64_t pc);

} // namespace flowguard::isa

#endif // FLOWGUARD_ISA_INSTS_HH

#include "runtime/baselines.hh"

#include "isa/insts.hh"

namespace flowguard::runtime {

using cpu::BranchKind;
using isa::Instruction;
using isa::Opcode;

bool
isCallPreceded(const isa::Program &program, uint64_t target)
{
    // Variable-length encoding: probe both call sizes.
    const Instruction *direct =
        program.fetch(target - isa::instSize(Opcode::Call));
    if (direct && direct->op == Opcode::Call)
        return true;
    const Instruction *indirect =
        program.fetch(target - isa::instSize(Opcode::CallInd));
    return indirect && indirect->op == Opcode::CallInd;
}

bool
kbouncerCheck(const isa::Program &program,
              const std::vector<trace::LbrEntry> &snapshot)
{
    for (const auto &entry : snapshot) {
        if (entry.kind != BranchKind::Return)
            continue;
        if (!isCallPreceded(program, entry.to))
            return false;
    }
    return true;
}

} // namespace flowguard::runtime

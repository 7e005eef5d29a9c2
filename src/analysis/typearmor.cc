#include "analysis/typearmor.hh"

#include <algorithm>
#include <deque>

#include "support/logging.hh"

namespace flowguard::analysis {

using isa::Instruction;
using isa::LoadedFunction;
using isa::Opcode;
using isa::Program;

namespace {

constexpr uint8_t arg_mask_all = (1u << isa::num_arg_regs) - 1;

/** Argument registers read by `inst` (mask over r0..r5). */
uint8_t
readMask(const Instruction &inst)
{
    auto bit = [](int reg) -> uint8_t {
        return reg < isa::num_arg_regs
            ? static_cast<uint8_t>(1u << reg) : 0;
    };
    switch (inst.op) {
      case Opcode::Alu: return bit(inst.rd) | bit(inst.rs);
      case Opcode::AluImm: return bit(inst.rd);
      case Opcode::MovReg: return bit(inst.rs);
      case Opcode::Load: return bit(inst.rs);
      case Opcode::Store: return bit(inst.rd) | bit(inst.rs);
      case Opcode::Cmp: return bit(inst.rd) | bit(inst.rs);
      case Opcode::CmpImm: return bit(inst.rd);
      case Opcode::JmpInd:
      case Opcode::CallInd: return bit(inst.rs);
      default: return 0;
    }
}

/** Argument registers written by `inst`. */
uint8_t
writeMask(const Instruction &inst)
{
    auto bit = [](int reg) -> uint8_t {
        return reg < isa::num_arg_regs
            ? static_cast<uint8_t>(1u << reg) : 0;
    };
    switch (inst.op) {
      case Opcode::Alu:
      case Opcode::AluImm:
      case Opcode::MovImm:
      case Opcode::MovReg:
      case Opcode::Load:
        return bit(inst.rd);
      case Opcode::Syscall:
        return bit(0);      // kernel return value in r0
      default:
        return 0;
    }
}

/** Count of contiguous prepared registers starting at r0. */
uint8_t
contiguousCount(uint8_t mask)
{
    uint8_t count = 0;
    while (count < isa::num_arg_regs && ((mask >> count) & 1))
        ++count;
    return count;
}

/** Highest consumed register index + 1. */
uint8_t
highestCount(uint8_t mask)
{
    uint8_t count = 0;
    for (int i = 0; i < isa::num_arg_regs; ++i)
        if ((mask >> i) & 1)
            count = static_cast<uint8_t>(i + 1);
    return count;
}

/**
 * Must-define forward dataflow over one function's intra-procedural
 * direct flow. Returns the mask of argument registers possibly read
 * before written.
 */
uint8_t
consumedMask(const Program &program, const LoadedFunction &fn)
{
    if (fn.numInsts == 0)
        return 0;

    // IN[i]: registers defined on *all* paths reaching instruction i.
    // Lattice: start optimistic (all defined), intersect at merges.
    std::vector<uint8_t> in(fn.numInsts, arg_mask_all);
    std::vector<bool> reached(fn.numInsts, false);

    auto local_index = [&](uint64_t addr) -> int {
        const uint32_t idx = program.instIndexAt(addr);
        if (idx == isa::no_inst)
            return -1;
        int64_t local = static_cast<int64_t>(idx) -
                        static_cast<int64_t>(fn.firstInst);
        if (local < 0 || local >= static_cast<int64_t>(fn.numInsts))
            return -1;
        return static_cast<int>(local);
    };

    uint8_t consumed = 0;
    std::deque<int> work;
    in[0] = 0;
    reached[0] = true;
    work.push_back(0);

    while (!work.empty()) {
        int i = work.front();
        work.pop_front();
        const Instruction &inst = program.inst(fn.firstInst + i);
        const uint64_t addr = program.instAddr(fn.firstInst + i);

        consumed |= static_cast<uint8_t>(readMask(inst) & ~in[i]);
        uint8_t out = static_cast<uint8_t>(in[i] | writeMask(inst));

        auto propagate = [&](int succ) {
            if (succ < 0)
                return;
            uint8_t merged = reached[succ]
                ? static_cast<uint8_t>(in[succ] & out) : out;
            if (!reached[succ] || merged != in[succ]) {
                in[succ] = merged;
                reached[succ] = true;
                work.push_back(succ);
            }
        };

        switch (inst.op) {
          case Opcode::Jcc:
            propagate(local_index(inst.target));
            propagate(local_index(addr + isa::instSize(inst.op)));
            break;
          case Opcode::Jmp:
            propagate(local_index(inst.target));
            break;
          case Opcode::Call:
          case Opcode::CallInd:
          case Opcode::JmpInd:
          case Opcode::Ret:
          case Opcode::Halt:
            // Consumption past a call or an exit is attributed to the
            // callee / successor context, as in TypeArmor.
            break;
          default:
            propagate(local_index(addr + isa::instSize(inst.op)));
            break;
        }
    }
    return consumed;
}

/**
 * Backward scan for the prepared-argument mask at an indirect call.
 * `enclosing_consumed` models argument forwarding from the caller's
 * own incoming arguments.
 */
uint8_t
preparedMask(const Program &program, const LoadedFunction &fn,
             uint32_t site_index, uint8_t enclosing_consumed)
{
    uint8_t written = 0;
    uint32_t i = site_index;
    while (i > fn.firstInst) {
        --i;
        const Instruction &inst = program.inst(i);
        if (inst.isCofi()) {
            // Barrier: paths merge here; everything not yet proven
            // written is unknown and therefore treated as prepared.
            return arg_mask_all;
        }
        written |= writeMask(inst);
        if (written == arg_mask_all)
            return written;
    }
    // Reached the function entry: unwritten registers may still be
    // forwarded from the enclosing function's own arguments.
    return static_cast<uint8_t>(written | enclosing_consumed);
}

} // namespace

TypeArmorInfo
analyzeTypeArmor(const Program &program)
{
    TypeArmorInfo info;
    const auto &funcs = program.functions();
    info.consumedCount.resize(funcs.size(), 0);
    info.addressTaken.assign(funcs.size(), false);

    // --- consumed arity per function -------------------------------------
    std::vector<uint8_t> consumed_masks(funcs.size(), 0);
    for (size_t f = 0; f < funcs.size(); ++f) {
        consumed_masks[f] = consumedMask(program, funcs[f]);
        info.consumedCount[f] = highestCount(consumed_masks[f]);
    }

    // --- prepared arity per indirect call site ---------------------------
    for (size_t f = 0; f < funcs.size(); ++f) {
        const LoadedFunction &fn = funcs[f];
        for (uint32_t i = fn.firstInst; i < fn.firstInst + fn.numInsts;
             ++i) {
            if (program.inst(i).op != Opcode::CallInd)
                continue;
            uint8_t mask =
                preparedMask(program, fn, i, consumed_masks[f]);
            info.preparedCount[program.instAddr(i)] =
                contiguousCount(mask);
        }
    }

    // --- address-taken functions ------------------------------------------
    // Entry lookup table.
    std::vector<uint64_t> entries;
    entries.reserve(funcs.size());
    for (const auto &fn : funcs)
        entries.push_back(fn.entry);
    std::vector<size_t> order(funcs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return entries[a] < entries[b];
    });
    auto mark_if_entry = [&](uint64_t value) {
        auto it = std::lower_bound(
            order.begin(), order.end(), value,
            [&](size_t idx, uint64_t v) { return entries[idx] < v; });
        if (it != order.end() && entries[*it] == value)
            info.addressTaken[*it] = true;
    };

    // Immediates that materialize a code address.
    for (size_t i = 0; i < program.numInsts(); ++i) {
        const Instruction &inst = program.inst(i);
        if (inst.op == Opcode::MovImm)
            mark_if_entry(static_cast<uint64_t>(inst.imm));
    }
    // Relocated pointers in initialized data (dispatch tables, GOT).
    for (const auto &image : program.initialData()) {
        for (size_t off = 0; off + 8 <= image.bytes.size(); off += 8) {
            uint64_t value = 0;
            for (int b = 7; b >= 0; --b)
                value = (value << 8) | image.bytes[off + b];
            if (value)
                mark_if_entry(value);
        }
    }

    for (size_t f = 0; f < funcs.size(); ++f)
        if (info.addressTaken[f])
            info.addressTakenEntries.push_back(funcs[f].entry);
    std::sort(info.addressTakenEntries.begin(),
              info.addressTakenEntries.end());
    return info;
}

} // namespace flowguard::analysis

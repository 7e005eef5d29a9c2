#include "analysis/cfg_builder.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "support/logging.hh"

namespace flowguard::analysis {

using isa::Instruction;
using isa::LoadedFunction;
using isa::Opcode;
using isa::Program;

namespace {

/** Reads a little-endian u64 from the initial data image, if mapped. */
bool
readInitialData64(const Program &program, uint64_t addr, uint64_t &out)
{
    for (const auto &image : program.initialData()) {
        if (addr >= image.addr &&
            addr + 8 <= image.addr + image.bytes.size()) {
            uint64_t value = 0;
            const size_t off = static_cast<size_t>(addr - image.addr);
            for (int b = 7; b >= 0; --b)
                value = (value << 8) | image.bytes[off + b];
            out = value;
            return true;
        }
    }
    return false;
}

/**
 * Pattern-matches the GOT-indirect jump idiom
 *   movi rX, &slot ; load rX, [rX+0] ; jmp *rX
 * and returns the slot's relocated content — exactly what a binary
 * framework recovers for PLT stubs.
 */
bool
resolveGotJump(const Program &program, uint32_t jmp_index,
               uint64_t &target)
{
    if (jmp_index < 2)
        return false;
    const Instruction &jmp = program.inst(jmp_index);
    const Instruction &load = program.inst(jmp_index - 1);
    const Instruction &movi = program.inst(jmp_index - 2);
    if (jmp.op != Opcode::JmpInd || load.op != Opcode::Load ||
        movi.op != Opcode::MovImm)
        return false;
    if (load.rd != jmp.rs || load.rs != load.rd || load.imm != 0 ||
        movi.rd != load.rs)
        return false;
    return readInitialData64(
        program, static_cast<uint64_t>(movi.imm), target);
}

} // namespace

Cfg
buildCfg(const Program &program, const TypeArmorInfo *typearmor)
{
    TypeArmorInfo local_ta;
    if (!typearmor) {
        local_ta = analyzeTypeArmor(program);
        typearmor = &local_ta;
    }
    const TypeArmorInfo &ta = *typearmor;
    const auto &funcs = program.functions();

    // --- jump-table hints by site address ---------------------------------
    std::unordered_map<uint64_t, std::vector<uint64_t>> table_targets;
    for (const auto &table : program.jumpTables()) {
        std::vector<uint64_t> targets;
        for (uint32_t k = 0; k < table.count; ++k) {
            uint64_t value = 0;
            if (readInitialData64(program, table.tableAddr + 8 * k,
                                  value) &&
                program.isCode(value)) {
                targets.push_back(value);
            }
        }
        table_targets[table.jmpAddr] = std::move(targets);
    }

    // --- leaders ------------------------------------------------------------
    // A leader begins a block: function entries, branch targets, and
    // the instruction after any CoFI.
    std::unordered_set<uint64_t> leaders;
    for (const auto &fn : funcs)
        if (fn.numInsts > 0)
            leaders.insert(fn.entry);
    for (size_t i = 0; i < program.numInsts(); ++i) {
        const Instruction &inst = program.inst(i);
        const uint64_t addr = program.instAddr(i);
        if (!inst.isCofi() && inst.op != Opcode::Halt)
            continue;
        const uint64_t next = addr + isa::instSize(inst.op);
        if (program.isCode(next))
            leaders.insert(next);
        if (inst.op == Opcode::Jcc || inst.op == Opcode::Jmp ||
            inst.op == Opcode::Call)
            leaders.insert(inst.target);
    }

    // --- blocks ---------------------------------------------------------------
    std::vector<BasicBlock> blocks;
    for (size_t f = 0; f < funcs.size(); ++f) {
        const LoadedFunction &fn = funcs[f];
        if (fn.numInsts == 0)
            continue;
        BasicBlock cur;
        bool open = false;
        for (uint32_t i = fn.firstInst; i < fn.firstInst + fn.numInsts;
             ++i) {
            const uint64_t addr = program.instAddr(i);
            const Instruction &inst = program.inst(i);
            if (!open || leaders.count(addr)) {
                if (open)
                    blocks.push_back(cur);
                cur = BasicBlock{};
                cur.start = addr;
                cur.firstInst = i;
                cur.funcIndex = static_cast<uint32_t>(f);
                cur.moduleIndex = program.instModule(i);
                open = true;
            }
            cur.end = addr + isa::instSize(inst.op);
            ++cur.numInsts;
            if (inst.isCofi() || inst.op == Opcode::Halt) {
                blocks.push_back(cur);
                open = false;
            }
        }
        if (open)
            blocks.push_back(cur);
    }
    std::sort(blocks.begin(), blocks.end(),
              [](const BasicBlock &a, const BasicBlock &b) {
                  return a.start < b.start;
              });

    std::unordered_map<uint64_t, uint32_t> block_at;
    block_at.reserve(blocks.size());
    for (uint32_t b = 0; b < blocks.size(); ++b)
        block_at[blocks[b].start] = b;

    auto lookup = [&](uint64_t addr) -> int {
        auto it = block_at.find(addr);
        return it == block_at.end() ? -1 : static_cast<int>(it->second);
    };

    // Entry-address -> function index, for tail-call detection.
    std::unordered_map<uint64_t, uint32_t> func_at_entry;
    for (uint32_t f = 0; f < funcs.size(); ++f)
        func_at_entry[funcs[f].entry] = f;

    // --- per-site indirect target resolution ----------------------------
    // For a JmpInd at flat index i, the conservatively allowed target
    // addresses.
    // `resolved` reports whether the target set came from a concrete
    // artifact (GOT slot or jump table) rather than the conservative
    // address-taken fallback; only resolved sets may feed tail-call
    // closure, the stop condition of the [22]-style emulation.
    auto jmp_ind_targets = [&](uint32_t inst_index, bool &resolved)
        -> std::vector<uint64_t> {
        const uint64_t addr = program.instAddr(inst_index);
        uint64_t got_target = 0;
        resolved = true;
        if (resolveGotJump(program, inst_index, got_target))
            return {got_target};
        auto it = table_targets.find(addr);
        if (it != table_targets.end())
            return it->second;
        resolved = false;
        return ta.addressTakenEntries;   // conservative fallback
    };

    auto call_ind_targets = [&](uint32_t inst_index)
        -> std::vector<uint64_t> {
        const uint64_t addr = program.instAddr(inst_index);
        uint8_t prepared = 6;
        if (auto it = ta.preparedCount.find(addr);
            it != ta.preparedCount.end())
            prepared = it->second;
        std::vector<uint64_t> out;
        for (uint32_t f = 0; f < funcs.size(); ++f) {
            if (!ta.addressTaken[f])
                continue;
            if (TypeArmorInfo::callAllowed(prepared,
                                           ta.consumedCount[f]))
                out.push_back(funcs[f].entry);
        }
        return out;
    };

    // --- direct and forward-indirect edges --------------------------------
    std::vector<Edge> edges;
    // Call sites: (return-block, callee-function) for ret matching.
    struct CallSite
    {
        int returnBlock;
        uint32_t callee;
    };
    std::vector<CallSite> call_sites;

    // Tail-call graph: function -> directly tail-called functions.
    std::vector<std::set<uint32_t>> tail_calls(funcs.size());

    for (uint32_t b = 0; b < blocks.size(); ++b) {
        const BasicBlock &block = blocks[b];
        const uint32_t last = block.firstInst + block.numInsts - 1;
        const Instruction &term = program.inst(last);
        const uint64_t term_addr = program.instAddr(last);
        const uint64_t next_addr =
            term_addr + isa::instSize(term.op);

        auto add_callees = [&](const std::vector<uint64_t> &targets,
                               EdgeKind kind) {
            const int ret_block = lookup(next_addr);
            for (uint64_t target : targets) {
                int tb = lookup(target);
                if (tb < 0)
                    continue;
                edges.push_back({b, static_cast<uint32_t>(tb), kind});
                auto fit = func_at_entry.find(target);
                if (fit != func_at_entry.end())
                    call_sites.push_back({ret_block, fit->second});
            }
        };

        switch (term.op) {
          case Opcode::Jcc: {
            if (int tb = lookup(term.target); tb >= 0)
                edges.push_back(
                    {b, static_cast<uint32_t>(tb), EdgeKind::CondTaken});
            if (int fb = lookup(next_addr); fb >= 0)
                edges.push_back(
                    {b, static_cast<uint32_t>(fb), EdgeKind::CondFall});
            break;
          }
          case Opcode::Jmp: {
            if (int tb = lookup(term.target); tb >= 0)
                edges.push_back({b, static_cast<uint32_t>(tb),
                                 EdgeKind::DirectJump});
            // Direct tail call: jumps at another function's entry.
            auto fit = func_at_entry.find(term.target);
            if (fit != func_at_entry.end() &&
                fit->second != block.funcIndex)
                tail_calls[block.funcIndex].insert(fit->second);
            break;
          }
          case Opcode::Call:
            add_callees({term.target}, EdgeKind::DirectCall);
            break;
          case Opcode::CallInd:
            add_callees(call_ind_targets(last), EdgeKind::IndirectCall);
            break;
          case Opcode::JmpInd: {
            bool resolved = false;
            std::vector<uint64_t> targets =
                jmp_ind_targets(last, resolved);
            for (uint64_t target : targets) {
                int tb = lookup(target);
                if (tb < 0)
                    continue;
                edges.push_back({b, static_cast<uint32_t>(tb),
                                 EdgeKind::IndirectJump});
                // Resolved cross-function indirect jumps (PLT stubs,
                // jump-table tail dispatch) participate in tail-call
                // closure; unresolved ones are treated as
                // intra-procedural dispatch.
                if (resolved) {
                    auto fit = func_at_entry.find(target);
                    if (fit != func_at_entry.end() &&
                        fit->second != block.funcIndex)
                        tail_calls[block.funcIndex].insert(fit->second);
                }
            }
            break;
          }
          case Opcode::Ret:
          case Opcode::Halt:
            break;
          default:
            // Fallthrough into the next leader (includes Syscall).
            if (int nb = lookup(next_addr); nb >= 0)
                edges.push_back({b, static_cast<uint32_t>(nb),
                                 EdgeKind::Fallthrough});
            break;
        }
    }

    // --- call/return matching with tail-call closure ----------------------
    // closure(F) = F plus everything transitively tail-called from F.
    std::vector<std::set<uint32_t>> closure(funcs.size());
    for (uint32_t f = 0; f < funcs.size(); ++f) {
        std::deque<uint32_t> work{f};
        while (!work.empty()) {
            uint32_t g = work.front();
            work.pop_front();
            if (!closure[f].insert(g).second)
                continue;
            for (uint32_t h : tail_calls[g])
                work.push_back(h);
        }
    }

    // Return sites per function.
    std::vector<std::set<uint32_t>> return_sites(funcs.size());
    for (const CallSite &site : call_sites) {
        if (site.returnBlock < 0)
            continue;
        for (uint32_t g : closure[site.callee])
            return_sites[g].insert(
                static_cast<uint32_t>(site.returnBlock));
    }

    // Ret blocks per function.
    for (uint32_t b = 0; b < blocks.size(); ++b) {
        const BasicBlock &block = blocks[b];
        const Instruction &term =
            program.inst(block.firstInst + block.numInsts - 1);
        if (term.op != Opcode::Ret)
            continue;
        for (uint32_t site : return_sites[block.funcIndex])
            edges.push_back({b, site, EdgeKind::Return});
    }

    // Dedup edges (multiple resolution paths can produce duplicates).
    std::sort(edges.begin(), edges.end(),
              [](const Edge &a, const Edge &b) {
                  if (a.from != b.from)
                      return a.from < b.from;
                  if (a.to != b.to)
                      return a.to < b.to;
                  return static_cast<int>(a.kind) <
                         static_cast<int>(b.kind);
              });
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge &a, const Edge &b) {
                                return a.from == b.from &&
                                       a.to == b.to && a.kind == b.kind;
                            }),
                edges.end());

    return Cfg(program, std::move(blocks), std::move(edges));
}

} // namespace flowguard::analysis

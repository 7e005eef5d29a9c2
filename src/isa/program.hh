/**
 * @file
 * Program — a fully linked, runnable image.
 *
 * Produced by the Loader from a set of Modules. Holds the flattened
 * instruction stream with absolute addresses, per-module code/data
 * ranges, the resolved symbol tables, the initial data image (GOT
 * slots and function-pointer tables already relocated), and the stack
 * layout. Code is immutable once linked (the W^X assumption of the
 * paper's threat model); the CPU copies `initialData()` into its
 * mutable memory at process start.
 *
 * Because code is immutable, every address→instruction question is
 * answered at link time. Each module keeps a dense code index, one
 * entry per code byte holding the flat index of the instruction that
 * starts there or `no_inst`, and every instruction carries its
 * successors (InstLinks) as flat indices, so the interpreter follows
 * fall-through and direct branches without any lookup.
 */

#ifndef FLOWGUARD_ISA_PROGRAM_HH
#define FLOWGUARD_ISA_PROGRAM_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/insts.hh"
#include "isa/module.hh"

namespace flowguard::isa {

/** Flat instruction index meaning "no instruction starts here". */
constexpr uint32_t no_inst = UINT32_MAX;

/** A module after loading: absolute ranges plus symbol tables. */
struct LoadedModule
{
    std::string name;
    ModuleKind kind = ModuleKind::Executable;
    uint64_t codeBase = 0;
    uint64_t codeEnd = 0;
    /** Dense code index, one entry per byte of [codeBase, codeEnd):
     *  entry `addr - codeBase` is the flat index of the instruction
     *  starting at `addr`, or no_inst. */
    std::vector<uint32_t> codeIndex;
    uint64_t dataBase = 0;
    uint64_t dataEnd = 0;
    std::unordered_map<std::string, uint64_t> funcAddrs;
    std::unordered_map<std::string, uint64_t> dataAddrs;
    /** Relocation-invariant content hash: computed over the module's
     *  pre-fixup instructions, offsets, symbols and data, so the same
     *  module hashes identically under any base (ASLR / rebase). */
    uint64_t fingerprint = 0;
};

/** A function after loading, with absolute [entry, end) code range. */
struct LoadedFunction
{
    std::string name;
    uint32_t moduleIndex = 0;
    bool exported = false;
    bool isPltStub = false;
    uint64_t entry = 0;
    uint64_t end = 0;
    uint32_t firstInst = 0;
    uint32_t numInsts = 0;
};

/** Jump-table hint with addresses resolved (see JumpTableHint). */
struct LoadedJumpTable
{
    uint64_t jmpAddr = 0;
    uint64_t tableAddr = 0;
    uint32_t count = 0;
};

/** An instruction's successors as flat indices, resolved at link time. */
struct InstLinks
{
    /** The instruction at `addr + instSize(op)`, or no_inst when that
     *  byte starts none (fall-through off a module's end). */
    uint32_t next = no_inst;
    /** For Jcc, Jmp and Call, the instruction at `target`, or no_inst
     *  when the target is not an instruction boundary. */
    uint32_t target = no_inst;
};

/** One relocated initial-data region. */
struct DataImage
{
    uint64_t addr = 0;
    std::vector<uint8_t> bytes;
};

class Program
{
  public:
    /** Flat index of the instruction starting at `addr`, or no_inst. */
    uint32_t instIndexAt(uint64_t addr) const
    {
        for (const LoadedModule &mod : _modules) {
            const uint64_t offset = addr - mod.codeBase;
            if (offset < mod.codeIndex.size())
                return mod.codeIndex[offset];
        }
        return no_inst;
    }

    /** Decoded instruction at `addr`, or nullptr if not code. */
    const Instruction *fetch(uint64_t addr) const
    {
        const uint32_t index = instIndexAt(addr);
        return index == no_inst ? nullptr : &_insts[index];
    }

    /** Index of the module whose code range contains `addr`, or -1. */
    int moduleIndexAt(uint64_t addr) const
    {
        for (size_t i = 0; i < _modules.size(); ++i) {
            const LoadedModule &mod = _modules[i];
            if (addr - mod.codeBase < mod.codeEnd - mod.codeBase)
                return static_cast<int>(i);
        }
        return -1;
    }

    /** Function whose [entry, end) contains `addr`, or nullptr. */
    const LoadedFunction *functionAt(uint64_t addr) const;

    /** True if `addr` falls inside any module's code range. */
    bool isCode(uint64_t addr) const { return moduleIndexAt(addr) >= 0; }

    /** Address of the instruction following the one at `addr`. */
    uint64_t nextAddr(uint64_t addr) const;

    const std::vector<LoadedModule> &modules() const { return _modules; }
    const std::vector<LoadedFunction> &functions() const
    {
        return _functions;
    }
    const std::vector<LoadedJumpTable> &jumpTables() const
    {
        return _jumpTables;
    }
    const std::vector<DataImage> &initialData() const
    {
        return _initialData;
    }

    size_t numInsts() const { return _insts.size(); }
    const Instruction &inst(size_t index) const { return _insts[index]; }
    uint64_t instAddr(size_t index) const { return _instAddrs[index]; }
    uint32_t instModule(size_t index) const { return _instModule[index]; }
    const InstLinks &instLinks(size_t index) const { return _links[index]; }

    uint64_t entry() const { return _entry; }
    uint64_t stackTop() const { return _stackTop; }
    uint64_t stackSize() const { return _stackSize; }
    /** Process "CR3" — the page-table base the trace filter keys on. */
    uint64_t cr3() const { return _cr3; }

    /** Address of function `func` in module `mod` (fatal if absent). */
    uint64_t funcAddr(const std::string &mod,
                      const std::string &func) const;

    /** Address of data object `obj` in module `mod` (fatal if absent). */
    uint64_t dataAddr(const std::string &mod,
                      const std::string &obj) const;

  private:
    friend class Loader;

    std::vector<Instruction> _insts;
    std::vector<uint64_t> _instAddrs;      ///< parallel to _insts, sorted
    std::vector<uint32_t> _instModule;     ///< parallel to _insts
    std::vector<InstLinks> _links;         ///< parallel to _insts

    std::vector<LoadedModule> _modules;
    std::vector<LoadedFunction> _functions;  ///< sorted by entry
    std::vector<LoadedJumpTable> _jumpTables;
    std::vector<DataImage> _initialData;

    uint64_t _entry = 0;
    uint64_t _stackTop = 0;
    uint64_t _stackSize = 0;
    uint64_t _cr3 = 0;
};

} // namespace flowguard::isa

#endif // FLOWGUARD_ISA_PROGRAM_HH

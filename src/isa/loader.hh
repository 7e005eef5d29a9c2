/**
 * @file
 * Loader — the dynamic linker of the simulator.
 *
 * Lays out modules in the address space, synthesizes PLT stubs + GOT
 * slots for inter-module calls, resolves symbols with ELF-style
 * interposition (first exporter in load order wins) and VDSO
 * precedence for functions the VDSO provides (per §4.1 of the paper),
 * applies relocations, and emits a runnable Program.
 */

#ifndef FLOWGUARD_ISA_LOADER_HH
#define FLOWGUARD_ISA_LOADER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/module.hh"
#include "isa/program.hh"

namespace flowguard::isa {

/**
 * Address-space layout policy. The fixed and randomized paths share
 * this one struct: the classic constants are the defaults, and
 * `randomize` adds a seeded, page-aligned slide per module arena.
 * Slides are bounded by `maxSlidePages` so arenas stay disjoint
 * (32 MiB of slide against a 256 MiB library stride and a ~127 MiB
 * vdso-to-stack gap).
 */
struct LayoutPolicy
{
    uint64_t execBase = 0x400000;
    uint64_t libBase = 0x7f0000000000ULL;
    uint64_t libStride = 0x10000000ULL;
    uint64_t vdsoBase = 0x7ffff7ff0000ULL;
    uint64_t stackTop = 0x7ffffffff000ULL;
    uint64_t stackSize = 1ULL << 20;
    bool randomize = false;
    uint64_t seed = 0;
    uint64_t maxSlidePages = 0x2000;    ///< 32 MiB at 4 KiB pages

    static LayoutPolicy fixed() { return {}; }

    static LayoutPolicy
    randomized(uint64_t seed)
    {
        LayoutPolicy policy;
        policy.randomize = true;
        policy.seed = seed;
        return policy;
    }
};

class Loader
{
  public:
    Loader() = default;

    /** Sets the executable module (exactly one, required); its
     *  `main` is the entry point. */
    Loader &addExecutable(Module mod);

    /** Adds a shared library; load order defines interposition order. */
    Loader &addLibrary(Module mod);

    /** Sets the VDSO module (optional; at most one). */
    Loader &addVdso(Module mod);

    /** Distinguishes processes for CR3 trace filtering (default 1). */
    Loader &cr3(uint64_t value);

    /** Address-space layout (default LayoutPolicy::fixed()). */
    Loader &layout(LayoutPolicy policy);

    /** Links everything into a Program. Consumes the loader. */
    Program link();

  private:
    struct Resolved
    {
        bool found = false;
        uint64_t addr = 0;
    };

    void synthesizePlt(Module &mod);
    Resolved resolveFunc(const std::string &symbol) const;
    Resolved resolveData(const std::string &symbol) const;
    /** Local definitions shadow global ones for data relocations. */
    Resolved resolveForModule(size_t moduleIndex,
                              const std::string &symbol) const;

    std::vector<Module> _mods;       ///< [0] = executable
    std::vector<size_t> _order;      ///< resolution order into _mods
    int _vdsoIndex = -1;
    bool _haveExecutable = false;
    uint64_t _cr3 = 1;
    LayoutPolicy _layout;

    /** Filled during link(): absolute bases per module. */
    std::vector<uint64_t> _codeBases;
    std::vector<uint64_t> _dataBases;
};

/** Address-space layout constants. */
namespace layout {

constexpr uint64_t exec_base = 0x400000;
constexpr uint64_t lib_base = 0x7f0000000000ULL;
constexpr uint64_t lib_stride = 0x10000000ULL;
constexpr uint64_t vdso_base = 0x7ffff7ff0000ULL;
constexpr uint64_t stack_top = 0x7ffffffff000ULL;
constexpr uint64_t stack_size = 1ULL << 20;
constexpr uint64_t mmap_base = 0x100000000ULL;
constexpr uint64_t jit_base = 0x200000000ULL;
constexpr uint64_t page = 0x1000;

} // namespace layout

} // namespace flowguard::isa

#endif // FLOWGUARD_ISA_LOADER_HH

/**
 * @file
 * ModuleMap — the runtime view of a mutating address space.
 *
 * The offline pipeline assumes a fixed image; the dynamic-code
 * subsystem relaxes that. The map tracks each module's *current* base
 * (which may differ from the link-time base after a Rebase event) and
 * liveness, plus registered JIT regions, and classifies any TIP
 * address into one of four classes the checkers act on:
 *
 *   LiveModule   known code, currently mapped     -> normal checking
 *   StaleModule  known code, unloaded             -> conviction (no
 *                legitimate flow targets an unmapped range)
 *   JitRegion    registered unknown code          -> JitPolicy
 *   Unknown      nothing we know about            -> JitPolicy
 *
 * Lookups return the module-local offset, so trained (module-relative)
 * profiles stay valid under any base assignment.
 */

#ifndef FLOWGUARD_DYNAMIC_MODULE_MAP_HH
#define FLOWGUARD_DYNAMIC_MODULE_MAP_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"

namespace flowguard::dynamic {

/** Resolution policy for TIPs landing outside known live code. */
enum class JitPolicy : uint8_t {
    Deny,       ///< convict: unknown code is a violation
    AuditOnly,  ///< log an UnknownCode report, keep running
    Allowlist,  ///< registered JIT ranges force the slow path;
                ///< unregistered unknowns still convict
};

/** What kind of code an address resolves to. */
enum class AddrClass : uint8_t {
    LiveModule,
    StaleModule,
    JitRegion,
    Unknown,
};

class ModuleMap
{
  public:
    /** Seeds the map with every module of `program`, all live. */
    explicit ModuleMap(const isa::Program &program);

    struct Lookup
    {
        AddrClass cls = AddrClass::Unknown;
        int32_t moduleIndex = -1;   ///< valid for module classes
        uint64_t offset = 0;        ///< module-local code offset
    };

    /** Classifies `addr`; binary search over the sorted region set. */
    Lookup classify(uint64_t addr) const;

    /** One module's current placement. */
    struct Region
    {
        uint64_t base = 0;
        uint64_t end = 0;
        bool live = true;
    };

    const Region &region(size_t moduleIndex) const
    {
        return _mods[moduleIndex];
    }
    size_t numModules() const { return _mods.size(); }

    void setModuleLive(size_t moduleIndex, bool live);
    bool moduleLive(size_t moduleIndex) const
    {
        return _mods[moduleIndex].live;
    }

    /** Moves a module's code range to `newBase` (same size). */
    void rebaseModule(size_t moduleIndex, uint64_t newBase);

    void mapJit(uint64_t base, uint64_t end);
    /** Removes the JIT region starting at `base`; false if absent. */
    bool unmapJit(uint64_t base);
    size_t numJitRegions() const { return _jit.size(); }

  private:
    void rebuildIndex();

    struct Interval
    {
        uint64_t base = 0;
        uint64_t end = 0;
        int32_t moduleIndex = -1;   ///< -1 = JIT region
    };

    std::vector<Region> _mods;              ///< by module index
    std::vector<std::pair<uint64_t, uint64_t>> _jit;
    std::vector<Interval> _index;           ///< sorted by base
};

} // namespace flowguard::dynamic

#endif // FLOWGUARD_DYNAMIC_MODULE_MAP_HH

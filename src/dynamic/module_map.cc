#include "dynamic/module_map.hh"

#include <algorithm>

#include "support/logging.hh"

namespace flowguard::dynamic {

ModuleMap::ModuleMap(const isa::Program &program)
{
    _mods.reserve(program.modules().size());
    for (const auto &lm : program.modules())
        _mods.push_back({lm.codeBase, lm.codeEnd, true});
    rebuildIndex();
}

void
ModuleMap::rebuildIndex()
{
    _index.clear();
    _index.reserve(_mods.size() + _jit.size());
    for (size_t i = 0; i < _mods.size(); ++i)
        _index.push_back({_mods[i].base, _mods[i].end,
                          static_cast<int32_t>(i)});
    for (const auto &[base, end] : _jit)
        _index.push_back({base, end, -1});
    std::sort(_index.begin(), _index.end(),
              [](const Interval &a, const Interval &b) {
                  return a.base < b.base;
              });
    for (size_t i = 1; i < _index.size(); ++i)
        fg_assert(_index[i - 1].end <= _index[i].base,
                  "module map regions overlap");
}

ModuleMap::Lookup
ModuleMap::classify(uint64_t addr) const
{
    Lookup lookup;
    auto it = std::upper_bound(
        _index.begin(), _index.end(), addr,
        [](uint64_t value, const Interval &iv) {
            return value < iv.base;
        });
    if (it == _index.begin())
        return lookup;
    --it;
    if (addr >= it->end)
        return lookup;
    if (it->moduleIndex < 0) {
        lookup.cls = AddrClass::JitRegion;
        lookup.offset = addr - it->base;
        return lookup;
    }
    const Region &mod = _mods[static_cast<size_t>(it->moduleIndex)];
    lookup.cls = mod.live ? AddrClass::LiveModule
                          : AddrClass::StaleModule;
    lookup.moduleIndex = it->moduleIndex;
    lookup.offset = addr - mod.base;
    return lookup;
}

void
ModuleMap::setModuleLive(size_t moduleIndex, bool live)
{
    _mods[moduleIndex].live = live;
    // Stale regions stay in the index so TIPs into them classify as
    // StaleModule rather than Unknown — the distinction between "a
    // ROP chain aimed at freed code" and "code we never knew".
}

void
ModuleMap::rebaseModule(size_t moduleIndex, uint64_t newBase)
{
    Region &mod = _mods[moduleIndex];
    const uint64_t size = mod.end - mod.base;
    mod.base = newBase;
    mod.end = newBase + size;
    rebuildIndex();
}

void
ModuleMap::mapJit(uint64_t base, uint64_t end)
{
    fg_assert(end > base, "empty JIT region");
    _jit.emplace_back(base, end);
    rebuildIndex();
}

bool
ModuleMap::unmapJit(uint64_t base)
{
    auto it = std::find_if(_jit.begin(), _jit.end(),
                           [base](const auto &region) {
                               return region.first == base;
                           });
    if (it == _jit.end())
        return false;
    _jit.erase(it);
    rebuildIndex();
    return true;
}

} // namespace flowguard::dynamic

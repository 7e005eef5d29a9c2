#include "isa/program.hh"

#include <algorithm>

#include "support/logging.hh"

namespace flowguard::isa {

const LoadedFunction *
Program::functionAt(uint64_t addr) const
{
    // _functions is sorted by entry; find the last entry <= addr.
    auto it = std::upper_bound(
        _functions.begin(), _functions.end(), addr,
        [](uint64_t a, const LoadedFunction &fn) { return a < fn.entry; });
    if (it == _functions.begin())
        return nullptr;
    --it;
    if (addr >= it->entry && addr < it->end)
        return &*it;
    return nullptr;
}

uint64_t
Program::nextAddr(uint64_t addr) const
{
    const Instruction *inst = fetch(addr);
    fg_assert(inst, "nextAddr of a non-code address");
    return addr + instSize(inst->op);
}

uint64_t
Program::funcAddr(const std::string &mod, const std::string &func) const
{
    for (const auto &lm : _modules) {
        if (lm.name != mod)
            continue;
        auto it = lm.funcAddrs.find(func);
        if (it == lm.funcAddrs.end())
            fg_fatal("no function '", func, "' in module '", mod, "'");
        return it->second;
    }
    fg_fatal("no module '", mod, "' in program");
}

uint64_t
Program::dataAddr(const std::string &mod, const std::string &obj) const
{
    for (const auto &lm : _modules) {
        if (lm.name != mod)
            continue;
        auto it = lm.dataAddrs.find(obj);
        if (it == lm.dataAddrs.end())
            fg_fatal("no data object '", obj, "' in module '", mod, "'");
        return it->second;
    }
    fg_fatal("no module '", mod, "' in program");
}

} // namespace flowguard::isa

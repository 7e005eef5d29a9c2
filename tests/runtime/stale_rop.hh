/**
 * @file
 * The stale-range ROP request shared by the dynamic-code tests: a
 * chain on the plugin server whose first pivot lands in an unloaded
 * plugin's code range.
 */

#ifndef FLOWGUARD_TESTS_STALE_ROP_HH
#define FLOWGUARD_TESTS_STALE_ROP_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "attacks/gadgets.hh"
#include "isa/syscalls.hh"
#include "workloads/apps.hh"

namespace flowguard::test {

/** True when `addr` lies in any of `app`'s dynamic modules. */
inline bool
inPluginRange(const workloads::SyntheticApp &app, uint64_t addr)
{
    for (uint32_t m : app.dynamicModules) {
        const auto &mod = app.program.modules()[m];
        if (addr >= mod.codeBase && addr < mod.codeEnd)
            return true;
    }
    return false;
}

/**
 * The planted attack: overflow the vuln handler, pivot through a
 * ret gadget *inside plugin 0's code range* (the plugin is never
 * dlopen'd in this request, so the range is stale), then
 * write()/exit() via live libc gadgets.
 */
inline std::vector<uint8_t>
staleRopRequest(const workloads::SyntheticApp &app,
                const attacks::GadgetCatalog &catalog)
{
    const auto &mod = app.program.modules()[app.dynamicModules[0]];
    uint64_t stale_ret = 0;
    for (uint64_t r : catalog.retGadgets)
        if (r >= mod.codeBase && r < mod.codeEnd) {
            stale_ret = r;
            break;
        }
    EXPECT_NE(stale_ret, 0u) << "no ret gadget inside the plugin";

    const attacks::PopGadget *pop = catalog.findPop({0, 1, 2});
    const uint64_t write_gadget = catalog.findSyscall(
        static_cast<int64_t>(isa::Syscall::Write));
    const uint64_t exit_gadget = catalog.findSyscall(
        static_cast<int64_t>(isa::Syscall::Exit));
    EXPECT_TRUE(pop && write_gadget && exit_gadget);
    // The rest of the chain must be live code, so the only stale
    // transition is the planted pivot.
    EXPECT_FALSE(inPluginRange(app, pop->addr));
    EXPECT_FALSE(inPluginRange(app, write_gadget));
    EXPECT_FALSE(inPluginRange(app, exit_gadget));

    const uint64_t buf = app.program.stackTop() - 512;
    std::vector<uint64_t> payload;
    for (size_t i = 0; i < workloads::vuln_buffer_words; ++i)
        payload.push_back(0x4141414141414141ULL);
    // First pivot: straight into the unloaded plugin's ret gadget, so
    // the stale transition is the first anomaly the checker meets.
    payload.push_back(stale_ret);
    payload.push_back(pop->addr);
    for (uint8_t reg : pop->regs) {
        switch (reg) {
          case 0: payload.push_back(1); break;      // fd
          case 1: payload.push_back(buf); break;    // src
          case 2: payload.push_back(16); break;     // bytes
          default: payload.push_back(0x42); break;
        }
    }
    payload.push_back(write_gadget);
    payload.push_back(exit_gadget);
    payload.push_back(0);                           // terminator
    return workloads::makePluginRequest(workloads::plugin_cmd_vuln, 0,
                                        payload);
}

} // namespace flowguard::test

#endif // FLOWGUARD_TESTS_STALE_ROP_HH

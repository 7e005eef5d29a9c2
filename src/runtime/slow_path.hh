/**
 * @file
 * The slow-path flow checker (§5.3): full instruction-flow decode
 * against the binaries, then precise policy enforcement.
 *
 * Backward edges: a shadow stack is maintained from the decoded flow;
 * every return must match the top of stack (single-target policy).
 * Returns that underflow the window's knowledge fall back to O-CFG
 * call/return matching — still conservative, never a false positive.
 *
 * Forward edges: every indirect call must target an address-taken
 * function entry whose consumed arity fits the site's prepared arity
 * (TypeArmor); every indirect jump must follow an O-CFG edge.
 */

#ifndef FLOWGUARD_RUNTIME_SLOW_PATH_HH
#define FLOWGUARD_RUNTIME_SLOW_PATH_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/typearmor.hh"
#include "cpu/cost_model.hh"
#include "isa/program.hh"
#include "runtime/fast_path.hh"

namespace flowguard::runtime {

struct SlowPathResult
{
    CheckVerdict verdict = CheckVerdict::Pass;
    uint64_t branchesChecked = 0;
    uint64_t instructionsWalked = 0;
    uint64_t violatingSource = 0;
    uint64_t violatingTarget = 0;
    std::string reason;
    /** Window entered JIT code: packet-level degraded check used. */
    bool degraded = false;
    /** Violation was a stale-range (unloaded module) TIP. */
    bool staleHit = false;
};

class SlowPathChecker
{
  public:
    SlowPathChecker(const analysis::Cfg &ocfg,
                    const analysis::TypeArmorInfo &typearmor,
                    cpu::CycleAccount *account = nullptr);

    /** Full-decodes and checks a ToPA snapshot. */
    SlowPathResult check(std::span<const uint8_t> packets) const;

    /**
     * Attaches the dynamic-code view. Windows containing stale-range
     * TIPs convict precisely; windows that entered JIT code cannot be
     * full-decoded (we have no image of JIT instructions), so they
     * degrade to a packet-level ITC membership check of the non-JIT
     * transitions against `itc` — documented, counted degradation
     * rather than a false desync conviction.
     */
    void
    setDynamic(const dynamic::ModuleMap *map, dynamic::JitPolicy policy,
               const analysis::ItcCfg *itc)
    {
        _map = map;
        _jitPolicy = policy;
        _itc = itc;
    }

    /** Emits SlowCheck spans (and nested FullDecode spans) for
     *  process `cr3` through `telemetry`; nullptr disables. */
    void
    setTelemetry(telemetry::Telemetry *telemetry, uint64_t cr3)
    {
        _telemetry = telemetry;
        _telemetryCr3 = cr3;
    }

  private:
    SlowPathResult checkImpl(std::span<const uint8_t> packets) const;
    bool returnAllowedByCfg(uint64_t source, uint64_t target) const;
    bool indirectJumpAllowed(uint64_t source, uint64_t target) const;
    bool indirectCallAllowed(uint64_t source, uint64_t target) const;

    const analysis::Cfg &_ocfg;
    const analysis::TypeArmorInfo &_ta;
    cpu::CycleAccount *_account;
    const dynamic::ModuleMap *_map = nullptr;
    dynamic::JitPolicy _jitPolicy = dynamic::JitPolicy::Allowlist;
    const analysis::ItcCfg *_itc = nullptr;
    telemetry::Telemetry *_telemetry = nullptr;
    uint64_t _telemetryCr3 = 0;
};

} // namespace flowguard::runtime

#endif // FLOWGUARD_RUNTIME_SLOW_PATH_HH

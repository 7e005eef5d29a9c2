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
#include "decode/fast_decoder.hh"
#include "decode/full_decoder.hh"
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

    /**
     * Full-decodes and checks a ToPA window: the live ring
     * (Topa::streamView()) or, with stream identity 0, bytes that stand
     * alone (a deferred copy). Only the window is decoded: the suffix
     * from the most recent PSB that still covers ~100 TIP packets (the
     * paper's §7.2.2 context-sensitive analysis window), not the entire
     * ToPA buffer. On the live ring the decode and the instruction walk
     * are kept across checks (decode::TraceCursor, decode::FlowWalk),
     * so a check parses and walks only the trace written since the
     * previous one; the check itself runs over the window's whole walk
     * from an empty shadow stack, so the verdict is the one a fresh
     * checker gives. Allocates nothing once the checker's scratch has
     * grown, unless it convicts.
     */
    SlowPathResult check(const trace::StreamView &window);

    /** check() of bytes that stand alone, always decoded afresh. */
    SlowPathResult
    check(std::span<const uint8_t> packets)
    {
        return check(trace::StreamView{packets});
    }

    /** The window the last check() decoded and walked, valid until the
     *  next check(). */
    const decode::FastDecodeResult &window() const
    {
        return _cursor.window();
    }

    /** The transitions of window(), valid until the next check(): what
     *  a pass vouches for, and so what the monitor stages for its
     *  verdict cache. */
    std::span<const decode::TransitionView> views() const
    {
        return _cursor.views();
    }

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
    /** The check of the window the cursor decoded last. */
    SlowPathResult checkFlow();
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

    // Scratch, reused across checks: the window's decode cursor (whose
    // transitions the JIT pre-scan reads), the kept walk and the shadow
    // stack.
    decode::TraceCursor _cursor;
    decode::FlowWalk _walk;
    std::vector<uint64_t> _shadow;
};

} // namespace flowguard::runtime

#endif // FLOWGUARD_RUNTIME_SLOW_PATH_HH

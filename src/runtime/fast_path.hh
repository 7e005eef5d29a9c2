/**
 * @file
 * The fast-path flow checker (§5.3).
 *
 * Packet-layer decodes the tail of the ToPA buffer, then matches each
 * consecutive TIP pair against the credit-labeled ITC-CFG using
 * binary search over the sorted node/target arrays. An edge missing
 * from the graph is a violation outright (the §4.2 invariant); an
 * edge present but carrying low credit — or TNT outcomes that differ
 * from the training data — makes the window suspicious and defers to
 * the slow path.
 *
 * The decode is kept in a decode::TraceCursor over the process's live
 * ToPA stream, so a check parses only the trace written since the
 * last one and cold-starts the anchored decode only when it must (see
 * TraceCursor). The cursor also keeps the window's transitions,
 * folding only the new steps, and beside each kept transition the
 * checker keeps what matching it against the graph found (node or
 * edge, live, credit, TNT-compatible, and its target's module).
 * The matches hold for one ItcCfg::version(); a check that finds
 * another forgets them all. A check matches only the transitions
 * that have no match: the new ones, the rebuilt head, and all of
 * them after the graph changed. Its window
 * is still the one the anchored decode returns, and every transition
 * in it is still counted and charged as checked, so no verdict,
 * statistic or check charge depends on what was kept. Only the
 * modeled decode charge does: it counts the bytes each check parsed.
 * The module map's resolution (dynamic code) is not kept; it is made
 * afresh at every check.
 *
 * Window policy per §7.1.1: at least `pkt_count` (default 30) TIPs
 * are checked, the window must stride more than one module, and at
 * least one checked TIP must land in the executable — defeating
 * return-to-lib endpoint laundering and history-flushing chains.
 */

#ifndef FLOWGUARD_RUNTIME_FAST_PATH_HH
#define FLOWGUARD_RUNTIME_FAST_PATH_HH

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/itc_cfg.hh"
#include "analysis/path_index.hh"
#include "cpu/cost_model.hh"
#include "decode/fast_decoder.hh"
#include "dynamic/module_map.hh"
#include "isa/program.hh"
#include "telemetry/telemetry.hh"

namespace flowguard::runtime {

/** Tri-state outcome of a flow check. */
enum class CheckVerdict : uint8_t {
    Pass,           ///< negative: no attack
    Suspicious,     ///< fast path cannot vouch; run the slow path
    Violation,      ///< positive: attack detected
};

struct FastPathConfig
{
    /** Lower bound on TIP packets checked per endpoint. */
    size_t pktCount = 30;
    /** Required fraction of checked edges with high credit. */
    double credRatio = 1.0;
    /** Enforce the >= 2 modules / executable-included rule. */
    bool requireModuleStride = true;
};

struct FastPathResult
{
    CheckVerdict verdict = CheckVerdict::Pass;
    size_t tipsChecked = 0;
    size_t edgesChecked = 0;
    size_t highCreditEdges = 0;
    size_t tntMismatches = 0;
    size_t pathMisses = 0;      ///< untrained n-grams (path mode)
    /** The offending transition when verdict == Violation. */
    uint64_t violatingFrom = 0;
    uint64_t violatingTo = 0;

    // Dynamic-code classification (all zero without a module map).
    /** Transitions waived under JitPolicy::AuditOnly. */
    size_t unknownTips = 0;
    /** Registered-JIT transitions waived under Allowlist. */
    size_t jitTips = 0;
    /** Violation was a TIP into an unloaded module's stale range. */
    bool staleHit = false;
    /** Allowlist saw JIT code: a Pass must still go slow-path. */
    bool forceSlow = false;

    // Loss accounting propagated from the packet-layer decode. The
    // verdict itself stays loss-blind here: degradation policy is the
    // Monitor's call (LossPolicy), not the fast path's.
    uint64_t overflows = 0;
    uint64_t resyncs = 0;
    uint64_t bytesSkipped = 0;
    /** Undecodable bytes seen (including an unrecoverable tail). */
    bool malformed = false;

    /** True when the decoded window lost trace or hit bad bytes. */
    bool
    lossDetected() const
    {
        return overflows > 0 || resyncs > 0 || malformed;
    }

    double
    observedCredRatio() const
    {
        return edgesChecked == 0
            ? 1.0
            : static_cast<double>(highCreditEdges) /
              static_cast<double>(edgesChecked);
    }
};

class FastPathChecker
{
  public:
    /**
     * `paths`, when non-null, enables the §7.1.2 context-sensitive
     * mode: windows must also consist of trained TIP n-grams.
     */
    FastPathChecker(const analysis::ItcCfg &itc,
                    const isa::Program &program, FastPathConfig config,
                    cpu::CycleAccount *account = nullptr,
                    const analysis::PathIndex *paths = nullptr);

    /**
     * Checks a ToPA window: the live ring (Topa::streamView()) or,
     * with stream identity 0, bytes that stand alone (an owned
     * snapshot). The window holds at least `pkt_count` TIPs
     * (SIZE_MAX: every TIP in the buffer). Decode and transition state
     * live in the checker's scratch, so once its capacity has grown a
     * check allocates nothing. Not reentrant.
     */
    FastPathResult check(const trace::StreamView &window,
                         size_t pkt_count) const;

    /** check() of bytes that stand alone, always decoded afresh. */
    FastPathResult
    check(std::span<const uint8_t> packets, size_t pkt_count) const
    {
        return check(trace::StreamView{packets}, pkt_count);
    }

    /** check() at the configured pkt_count. */
    FastPathResult
    check(std::span<const uint8_t> packets) const
    {
        return check(packets, _config.pktCount);
    }

    /** Checks pre-extracted transitions (shared with tests/benches). */
    FastPathResult
    checkTransitions(const std::vector<decode::TipTransition> &all)
        const;

    /**
     * Attaches the dynamic-code view: TIP endpoints are classified
     * through `map` before edge matching, and `policy` decides what
     * JIT/unknown code does. `map` must outlive the checker; nullptr
     * restores static behavior.
     */
    void
    setDynamic(const dynamic::ModuleMap *map, dynamic::JitPolicy policy)
    {
        _map = map;
        _jitPolicy = policy;
    }

    /** Emits FastCheck spans (and nested decode spans) for process
     *  `cr3` through `telemetry`; nullptr disables. */
    void
    setTelemetry(telemetry::Telemetry *telemetry, uint64_t cr3)
    {
        _telemetry = telemetry;
        _telemetryCr3 = cr3;
    }

  private:
    /** What matching one transition against the graph found: two
     *  bytes, one per kept view. */
    struct Classification
    {
        static constexpr int8_t unresolved = -2;

        /** Program module of the target (-1: none), once looked up and
         *  when it fits. */
        int8_t module = unresolved;
        /** The match below was made against the graph as it is. */
        bool matched : 1 = false;
        /** A head's target is a node; another's edge is in the graph
         *  and live. */
        bool known : 1 = false;
        /** The edge has high credit. */
        bool credit : 1 = false;
        /** The edge has high credit and the view's outcomes are
         *  TNT-compatible with it. */
        bool tnt : 1 = false;
    };

    FastPathResult
    checkWindow(std::span<const decode::TransitionView> all,
                std::span<Classification> memo, size_t pkt_count) const;
    /** Matches `transition` against the graph as it is now. */
    void classify(const decode::TransitionView &transition,
                  Classification &out) const;

    /** Per-check working state, reused across checks. */
    struct Scratch
    {
        decode::TraceCursor cursor;
        /** One per cursor view, and the cursor origin they align to. */
        std::vector<Classification> memo;
        decode::TraceCursor::Origin memoOrigin;
        /** ItcCfg::version() the memo's matches were made under. */
        uint64_t graph = 0;
        /** checkTransitions()' views. */
        std::vector<decode::TransitionView> transitions;
        std::vector<uint64_t> targets;
    };

    const analysis::ItcCfg &_itc;
    const isa::Program &_program;
    FastPathConfig _config;
    cpu::CycleAccount *_account;
    const analysis::PathIndex *_paths;
    const dynamic::ModuleMap *_map = nullptr;
    dynamic::JitPolicy _jitPolicy = dynamic::JitPolicy::Allowlist;
    telemetry::Telemetry *_telemetry = nullptr;
    uint64_t _telemetryCr3 = 0;
    mutable Scratch _scratch;
};

} // namespace flowguard::runtime

#endif // FLOWGUARD_RUNTIME_FAST_PATH_HH

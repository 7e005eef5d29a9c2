/**
 * @file
 * FlowGuard — the top-level public API.
 *
 * Wraps the full pipeline of the paper behind one object:
 *
 *   offline   analyze()   static analysis: TypeArmor, conservative
 *                         O-CFG, ITC-CFG reconstruction (Figure 2)
 *             train(...)  coverage-oriented fuzzing + edge credit /
 *                         TNT labeling (§4.3)
 *   online    run(...)    executes the program on the CPU model with
 *                         IPT tracing, syscall interception and
 *                         hybrid fast/slow-path checking (§5); kills
 *                         the process on a control-flow violation
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   FlowGuard guard(app.program);
 *   guard.analyze();
 *   guard.train(2'000);
 *   auto outcome = guard.run(input);
 *   if (outcome.attackDetected) ...
 */

#ifndef FLOWGUARD_CORE_FLOWGUARD_HH
#define FLOWGUARD_CORE_FLOWGUARD_HH

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "analysis/aia.hh"
#include "analysis/path_index.hh"
#include "analysis/itc_cfg.hh"
#include "dynamic/dynamic_guard.hh"
#include "fuzz/fuzzer.hh"
#include "isa/program.hh"
#include "runtime/kernel.hh"
#include "runtime/monitor.hh"

namespace flowguard {

struct FlowGuardConfig
{
    /** Fast-path policy (pkt_count, cred_ratio, module stride). */
    runtime::FastPathConfig fastPath;
    /** Intercepted security-sensitive syscalls. */
    std::set<int64_t> endpoints =
        runtime::FlowGuardKernel::defaultEndpoints();
    /** Cache negative slow-path verdicts into the fast path. */
    bool cacheSlowPathVerdicts = true;
    /** §7.1.2 fallback: also check every buffer-full PMI window,
     *  defeating endpoint-pruning attacks at extra cost. */
    bool pmiChecking = false;
    /** §7.1.2 future-work mode: path-sensitive fast checking. */
    bool pathSensitive = false;
    /** ToPA geometry (the paper uses one ToPA with two regions). */
    std::vector<size_t> topaRegions = {8192, 8192};
    /** PSB sync-point period in trace bytes. */
    uint32_t psbPeriodBytes = 1024;
    /** Degradation policy for windows with trace loss (§7.1.2). */
    runtime::LossPolicy lossPolicy =
        runtime::LossPolicy::EscalateSlowPath;
    /** PMI service latency in trace bytes: 0 = instant service (no
     *  loss); positive values drop that much trace per buffer-full
     *  overflow episode, exercising the loss machinery. */
    size_t pmiServiceLatencyBytes = 0;
    /** Instruction budget for each fuzz execution. */
    uint64_t fuzzRunMaxInsts = 2'000'000;

    // --- dynamic code (src/dynamic) ---------------------------------------
    /** Policy for transitions through JIT-mapped code. */
    dynamic::JitPolicy jitPolicy = dynamic::JitPolicy::Allowlist;
    /**
     * Module indices that start unloaded and come and go at runtime
     * through the dlopen/dlclose syscalls. Non-empty turns on dynamic
     * tracking.
     */
    std::vector<uint32_t> dynamicModules;

    // --- observability (src/telemetry) ------------------------------------
    /**
     * External telemetry hub. When set, run() and makeProcessHarness()
     * wire it through the kernel, monitor and encoder, so
     * the caller's sink sees the whole check lifecycle. When null,
     * run() builds a run-local hub (null sink) purely so violation
     * reports still carry flight-recorder snapshots. Must outlive the
     * guard's runs/harnesses.
     */
    telemetry::Telemetry *telemetry = nullptr;
    /** Disables even the run-local hub: zero observability
     *  instrumentation on the check path (bench baseline). */
    bool telemetryOff = false;
};

class FlowGuard
{
  public:
    /** `program` must outlive this object. */
    explicit FlowGuard(const isa::Program &program,
                       FlowGuardConfig config = {});
    FlowGuard(FlowGuard &&) noexcept = default;
    ~FlowGuard();

    // --- offline phase -----------------------------------------------------
    /** Runs the static pipeline. Idempotent. */
    void analyze();

    /** True once analyze() has run. */
    bool analyzed() const { return _itc != nullptr; }

    /**
     * Coverage-oriented fuzzing training: mutates from `seeds` for
     * `budget` target executions, then replays the corpus under IPT
     * to label ITC-CFG edge credits and TNT info.
     */
    void train(uint64_t budget,
               std::vector<fuzz::Input> seeds = {{0}});

    /**
     * Labels credits from an existing corpus (no fuzzing). Once one
     * replay outweighs starting a thread, inputs are replayed as a
     * queue of futures, one lane each, and labeled in corpus order
     * (fuzz::trainItcCfg), so the trained state is that of replaying
     * one input at a time.
     */
    void trainWithCorpus(const std::vector<fuzz::Input> &corpus);

    /** The runner used for fuzzing/training: executes the program
     *  under a plain kernel with the given sink attached. */
    fuzz::RunTarget defaultRunner() const;

    // --- offline artifacts -------------------------------------------------
    const analysis::Cfg &ocfg() const;
    analysis::ItcCfg &itc();
    const analysis::ItcCfg &itc() const;
    const analysis::TypeArmorInfo &typearmor() const;
    analysis::AiaReport aia() const;
    analysis::CfgStats cfgStats() const;
    /** Wall-clock seconds spent in analyze() (Table 5). */
    double analyzeSeconds() const { return _analyzeSeconds; }
    const fuzz::Fuzzer *fuzzer() const { return _fuzzer.get(); }
    /** Trained path index (null unless pathSensitive). */
    const analysis::PathIndex *paths() const { return _paths.get(); }
    /** Mutable path index (profile loading). */
    analysis::PathIndex *mutablePaths() { return _paths.get(); }

    // --- online phase -------------------------------------------------------
    struct RunOutcome
    {
        cpu::Cpu::Stop stop = cpu::Cpu::Stop::Halted;
        int64_t exitCode = 0;
        bool attackDetected = false;
        std::vector<runtime::ViolationReport> violations;
        runtime::MonitorStats monitor;
        cpu::CycleAccount cycles;
        uint64_t instructions = 0;
        uint64_t syscalls = 0;
        std::vector<uint8_t> output;
        trace::IptStats trace;
        /** ToPA loss accounting (nonzero only with PMI latency). */
        uint64_t overflowEpisodes = 0;
        uint64_t droppedTraceBytes = 0;
        /** Dynamic-code accounting (all-zero without tracking). */
        dynamic::DynamicStats dynamicStats;
        /** One CheckVerdict byte per finally-resolved check — the
         *  layout-independent stream the ASLR property compares. */
        std::vector<uint8_t> verdicts;
        /** Kind::UnknownCode observations under AuditOnly. */
        std::vector<runtime::ViolationReport> auditReports;
    };

    /** Runs the protected process on `input`. Requires analyze(). */
    RunOutcome run(const std::vector<uint8_t> &input,
                   uint64_t max_insts = 50'000'000);

    /**
     * One protected process's online stack (CPU, ToPA, encoder,
     * monitor) built from this guard's trained offline artifacts —
     * the unit a multi-process service experiment wires into a
     * cpu::Machine + runtime::ProtectionService alongside its peers.
     */
    struct ProcessHarness
    {
        std::unique_ptr<cpu::Cpu> cpu;
        std::unique_ptr<trace::Topa> topa;
        std::unique_ptr<trace::IptEncoder> encoder;
        /** Private ITC-CFG copy (null unless dynamic tracking is on).
         *  Liveness and runtime credit are per-process state: one
         *  process's dlclose must not retract edges under its peers,
         *  so each harness mutates its own copy of the trained
         *  graph. */
        std::unique_ptr<analysis::ItcCfg> itc;
        std::unique_ptr<runtime::Monitor> monitor;
        /** Dynamic-code guard (null unless the config enables it).
         *  The caller's kernel must addCodeEventSink(dyn.get()). */
        std::unique_ptr<dynamic::DynamicGuard> dyn;
        cpu::CycleAccount cycles;
    };

    /**
     * Builds the online stack for `program` — typically a copy of
     * the analyzed binary mapped under a different CR3, so several
     * processes share one trained ITC-CFG. `program` must outlive
     * the harness. The monitor is created with autoCommitCache
     * cleared: in service runs the check scheduler owns cache
     * commits (a timed-out or deferred verdict must never earn
     * durable credit).
     */
    std::unique_ptr<ProcessHarness>
    makeProcessHarness(const isa::Program &program);

    /** Baseline: same program, no tracing, no checking. */
    RunOutcome runUnprotected(const std::vector<uint8_t> &input,
                              uint64_t max_insts = 50'000'000) const;

    const FlowGuardConfig &config() const { return _config; }
    const isa::Program &program() const { return _program; }

  private:
    const isa::Program &_program;
    FlowGuardConfig _config;

    std::unique_ptr<analysis::TypeArmorInfo> _typearmor;
    std::unique_ptr<analysis::Cfg> _ocfg;
    std::unique_ptr<analysis::ItcCfg> _itc;
    std::unique_ptr<fuzz::Fuzzer> _fuzzer;
    std::unique_ptr<analysis::PathIndex> _paths;
    double _analyzeSeconds = 0.0;
};

} // namespace flowguard

#endif // FLOWGUARD_CORE_FLOWGUARD_HH

/**
 * @file
 * Shared pieces of the FlowGuard benchmark: the run report and its
 * correctness gate, host timers, the endpoint-timing kernel, the
 * inline protected-run wiring the traced run uses, and the per-layer
 * replays.
 *
 * Everything here measures the program from outside, by timing calls
 * into each layer's public functions; nothing under src/ is
 * instrumented.
 */

#ifndef FLOWGUARD_PERFBENCH_BENCH_HH
#define FLOWGUARD_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/flowguard.hh"
#include "recovery/supervisor.hh"
#include "runtime/kernel.hh"
#include "runtime/service.hh"
#include "workloads/apps.hh"

namespace flowguard::perfbench {

using Clock = std::chrono::steady_clock;

inline double
nsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

inline double
secondsSince(Clock::time_point start)
{
    return nsSince(start) * 1e-9;
}

/** Modeled cycles per host ns: the stated clock of the ledger's
 *  measured-vs-modeled ratios. */
constexpr double model_ghz = 4.0;

/** Quantile by interpolation; 0 for an empty sample. */
double quantileOf(std::vector<double> samples, double q);

inline double
medianOf(std::vector<double> samples)
{
    return quantileOf(std::move(samples), 0.5);
}

/** Derives an independent input seed from the workload seed. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/** FNV-1a over a verdict stream: the digest two same-seed runs must
 *  reproduce. */
uint64_t digestOf(const std::vector<uint8_t> &bytes,
                  uint64_t digest = 0xcbf29ce484222325ULL);

/** Folds every MonitorStats counter into a digest. */
uint64_t digestOf(const runtime::MonitorStats &stats, uint64_t digest);

/** Peak resident memory of this process image (VmHWM), in MiB. */
double peakRssMb();

/**
 * Host speed now: iterations per ns of a fixed calibration kernel
 * (xorshift-indexed updates of a 512 KiB table with a data-dependent
 * store, about 15 ms).
 *
 * The shared virtual machine this benchmark was developed on changes
 * speed by up to half over a few seconds, and the kernel timed next to
 * each measured interval tracks that: across eight 6-second runs of
 * one seed, the spread of median throughput fell from 0.19 to 0.06
 * when each pass was scaled by it. The end-to-end host times are
 * therefore reported in reference-host time: host time x measured
 * speed / reference_speed. The wall-clock figures go to a note.
 */
double hostSpeed();

/** The speed reference-host time is expressed at: 130 M kernel
 *  iterations per second, about the development host's typical
 *  speed. */
constexpr double reference_speed = 0.13;

/** Host ns of an interval bracketed by two hostSpeed() samples, in
 *  reference-host ns. */
inline double
referenceNs(double host_ns, double speed_before, double speed_after)
{
    return host_ns * 0.5 * (speed_before + speed_after) / reference_speed;
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/**
 * What one workload run produces: metrics, operation accounting and
 * the correctness gate. An operation is one endpoint check of a
 * benign process or one planted attack.
 */
class Report
{
  public:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    void add(const std::string &name, double value,
             const std::string &unit);

    /** Counts `ops` operations of which `bad` failed. */
    void ops(uint64_t ops, uint64_t bad, const std::string &what);

    /** A gate that is not an operation (invariants, fidelity,
     *  determinism); a false `ok` fails the run. */
    void require(bool ok, const std::string &what);

    /** A deterministic line (modeled metric, verdict digest) printed
     *  before the result; same seed, same lines. */
    void note(const std::string &line) { _notes.push_back(line); }

    bool correct() const { return _problems.empty(); }

    /** Prints notes, problems and the one-line JSON result. */
    void print() const;

  private:
    std::vector<Metric> _metrics;
    std::vector<std::string> _notes;
    std::vector<std::string> _problems;
    uint64_t _attempted = 0;
    uint64_t _failed = 0;
};

/** Byte-equal MonitorStats (every field is a counter). */
bool sameStats(const runtime::MonitorStats &a,
               const runtime::MonitorStats &b);

/** Adds the check counters reportModel() and fastPathRate() read. */
void addChecks(runtime::MonitorStats &total,
               const runtime::MonitorStats &stats);

/** Checks every MonitorStats identity; reports the first broken one. */
void requireInvariants(Report &report, const runtime::MonitorStats &stats,
                       const std::string &who);

// ---------------------------------------------------------------------------
// Endpoint timing
// ---------------------------------------------------------------------------

/** What the benchmark sees of one protected process from outside. */
struct ProcessTap
{
    runtime::Monitor *monitor = nullptr;
    trace::Topa *topa = nullptr;
    const cpu::CycleAccount *account = nullptr;
    /** Index of the guard (analyzed binary) the process runs. */
    size_t guard = 0;
};

/** One intercepted endpoint or code-unload barrier. */
struct EndpointSample
{
    /** Host time around FlowGuardKernel::onSyscall. */
    double hostNs = 0.0;
    /** Modeled overhead cycles charged to the process meanwhile:
     *  how long its verdict took, on the model's clock. */
    double modeledCycles = 0.0;
    bool barrier = false;
    /** Any slow-path check ran during the call (any process). */
    bool slowWork = false;
    /** The scheduler deferred a check during the call. */
    bool deferred = false;
    /** The recovery journal was compacted during the call. */
    bool compacted = false;
};

/** A checked window kept for the layer replays. */
struct CapturedWindow
{
    size_t guard = 0;
    std::vector<uint8_t> packets;
};

/** Shared by every kernel of one run. */
struct EndpointLog
{
    std::map<uint64_t, ProcessTap> taps;
    /** The fleet's service and supervisor (null for inline runs). */
    const runtime::ProtectionService *service = nullptr;
    const recovery::RecoverySupervisor *supervisor = nullptr;
    /** Keep checked windows and time a ToPA snapshot per endpoint. */
    bool captureWindows = false;

    std::vector<EndpointSample> samples;
    std::vector<double> snapshotNs;
    std::vector<CapturedWindow> windows;    ///< fast-resolved
    std::vector<CapturedWindow> escalated;  ///< went to the slow path

    uint64_t slowChecks() const;
    uint64_t compactions() const;
};

/**
 * A FlowGuardKernel that times every endpoint and barrier syscall of
 * a tapped process from outside, and records the modeled cycles the
 * process was charged while it was blocked.
 */
class TimingKernel : public runtime::FlowGuardKernel
{
  public:
    TimingKernel(Config config, EndpointLog &log);

    cpu::SyscallResult onSyscall(cpu::Cpu &cpu, int64_t number) override;

  private:
    std::set<int64_t> _endpoints;
    EndpointLog &_log;
};

// ---------------------------------------------------------------------------
// Inline protected run (the FlowGuard::run wiring, rebuilt outside)
// ---------------------------------------------------------------------------

struct InlineRun
{
    runtime::MonitorStats monitor;
    std::vector<uint8_t> verdicts;
    std::vector<uint8_t> output;
    double hostNs = 0.0;
};

/**
 * Runs `input` through the same stack FlowGuard::run builds for the
 * default configuration, but with a TimingKernel in place of the
 * plain kernel. `telemetry` wires the run-local null hub exactly as
 * FlowGuard::run does; without it the run matches telemetryOff.
 */
InlineRun runInline(FlowGuard &guard, const std::vector<uint8_t> &input,
                    EndpointLog &log, size_t guard_index,
                    bool telemetry);

// ---------------------------------------------------------------------------
// Per-layer replays
// ---------------------------------------------------------------------------

/** One unprotected execution the interpreter/encoder replays use. */
struct ReplayRun
{
    FlowGuard *guard = nullptr;
    const std::vector<uint8_t> *input = nullptr;
};

struct LayerTimes
{
    double encodeNsPerBranch = 0.0;
    /** Retired branches across the replayed runs: what the encoder
     *  saw in the protected run. */
    uint64_t branches = 0;
};

/**
 * Times each layer's public functions on this workload's programs,
 * inputs and captured windows; adds the cpu/trace/decode/runtime
 * per-layer metrics and the measured-vs-modeled ratios.
 */
LayerTimes measureLayers(const std::vector<FlowGuard *> &guards,
                         const std::vector<ReplayRun> &runs,
                         const EndpointLog &log, Report &report);

/**
 * Host time of one traced protected pass, split by where it went. An
 * endpoint (or drain) that compacted the recovery journal counts as
 * recovery, else one that ran any slow-path check as slow path, else
 * as fast path.
 */
struct PassSplit
{
    double totalNs = 0.0;       ///< the whole protected pass
    double fastNs = 0.0;
    double slowNs = 0.0;
    double recoveryNs = 0.0;

    /** Adds an intercepted interval to its bucket. */
    void add(double ns, bool slow_work, bool compacted);
    void addEndpoints(const EndpointLog &log);

    /** Converts every field to reference-host ns (see hostSpeed). */
    void toReference(double speed_before, double speed_after);
};

/** The traced run's repeated passes of one workload, in pairs. */
struct TracedPasses
{
    /** Traced wiring with a null-sink telemetry hub. */
    std::vector<PassSplit> nullHub;
    /** Traced wiring with telemetry off. */
    std::vector<PassSplit> telemetryOff;
    /** Which of the two the production wiring matches: FlowGuard::run
     *  builds a run-local null hub; service harnesses have none. */
    bool nullHubIsDefault = true;
    /** The production wiring, same inputs. */
    std::vector<double> untracedNs;
    /** Endpoint checks in one pass. */
    uint64_t checksPerPass = 0;
};

/**
 * Adds the kernel-endpoint percentiles (from the capture pass), each
 * layer's share of the protected pass's host time, the tracing
 * overhead and telemetry's cost per check.
 */
void reportTraced(const EndpointLog &capture, const LayerTimes &layers,
                  const TracedPasses &passes, Report &report);

/**
 * Runs `setup` `times` times (once when tracing); returns each run's
 * reference-host seconds, whose median is `setup_s`. A fixed count
 * keeps the peak resident memory independent of host speed.
 */
template <typename Setup>
std::vector<double>
repeatSetup(int times, bool once, Setup &&setup)
{
    std::vector<double> seconds;
    for (int i = 0; i < (once ? 1 : times); ++i) {
        const double before = hostSpeed();
        const auto start = Clock::now();
        setup();
        const double ns = nsSince(start);
        seconds.push_back(referenceNs(ns, before, hostSpeed()) * 1e-9);
    }
    return seconds;
}

/**
 * p99 of every check's verdict age, in modeled Mcycles: its blocking
 * cost at the endpoint, or, when `scheduler` deferred it, its
 * enqueue-to-verdict age.
 */
double p99VerdictAge(const EndpointLog &log,
                     const runtime::SchedulerStats *scheduler);

/** What an untraced run reports: the end-to-end metrics. */
struct EndToEnd
{
    std::vector<double> setupSeconds;
    /** Per production pass: requests per reference-host second, the
     *  wall-clock rate and the host speed around the pass. */
    std::vector<double> rates, wallRates, speeds;
    double peakRssMb = 0.0;
    double overheadPct = 0.0;
    double fastPathRate = 0.0;
    double attackDetectRate = 0.0;
    double verdictAgeP99 = 0.0;

    /** Records one production pass that served `requests` in
     *  `host_ns` between two hostSpeed() samples; returns its
     *  reference-host ns. */
    double addPass(size_t requests, double host_ns, double speed_before,
                   double speed_after);

    /** Notes the modeled metrics with `digest`: the deterministic line
     *  two runs of one seed must print identically. */
    void noteModel(Report &report, uint64_t digest) const;

    /** Notes the wall-clock rate and adds every end-to-end metric. */
    void addTo(Report &report) const;
};

/** The modeled CycleAccount slices and monitor counts. */
void reportModel(const cpu::CycleAccount &cycles,
                 const runtime::MonitorStats &stats, Report &report);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Report runServe(const Options &options);
Report runStorm(const Options &options);
Report runColdFleet(const Options &options);

} // namespace flowguard::perfbench

#endif // FLOWGUARD_PERFBENCH_BENCH_HH

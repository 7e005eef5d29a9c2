#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "cpu/cost_model.hh"
#include "decode/fast_decoder.hh"
#include "isa/syscalls.hh"
#include "runtime/fast_path.hh"
#include "runtime/slow_path.hh"
#include "support/stats.hh"
#include "telemetry/telemetry.hh"
#include "trace/ipt.hh"

namespace flowguard::perfbench {

double
quantileOf(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    Distribution dist;
    for (double sample : samples)
        dist.add(sample);
    return dist.quantile(q);
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    // splitmix64 finalizer over the pair.
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
digestOf(const std::vector<uint8_t> &bytes, uint64_t digest)
{
    for (uint8_t byte : bytes) {
        digest ^= byte;
        digest *= 0x100000001b3ULL;
    }
    return digest;
}

uint64_t
digestOf(const runtime::MonitorStats &stats, uint64_t digest)
{
    static_assert(std::has_unique_object_representations_v<
                  runtime::MonitorStats>);
    const auto *bytes = reinterpret_cast<const uint8_t *>(&stats);
    return digestOf(std::vector<uint8_t>(bytes, bytes + sizeof stats),
                    digest);
}

double
peakRssMb()
{
    // Not getrusage: its ru_maxrss survives exec, so it would report
    // the launching process's footprint when that one was larger.
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, status))
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(status);
    return kib / 1024.0;
}

double
hostSpeed()
{
    constexpr uint32_t iterations = 2'000'000;
    static std::vector<uint32_t> table(size_t{1} << 17);
    static volatile uint64_t sink = 0;
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto start = Clock::now();
    for (uint32_t i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table[x & (table.size() - 1)] += static_cast<uint32_t>(x);
        if (x & 1)
            sink = sink + 1;
    }
    return iterations / nsSince(start);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    _metrics.push_back({name, value, unit});
}

void
Report::ops(uint64_t ops, uint64_t bad, const std::string &what)
{
    _attempted += ops;
    _failed += bad;
    if (bad > 0)
        _problems.push_back(std::to_string(bad) + " of " +
                            std::to_string(ops) + " failed: " + what);
}

void
Report::require(bool ok, const std::string &what)
{
    if (!ok)
        _problems.push_back(what);
}

void
Report::print() const
{
    for (const auto &line : _notes)
        std::printf("# %s\n", line.c_str());
    for (const auto &problem : _problems) {
        std::printf("GATE FAILED: %s\n", problem.c_str());
        std::fprintf(stderr, "GATE FAILED: %s\n", problem.c_str());
    }
    for (const auto &metric : _metrics)
        std::printf("%-40s %16.6f %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());

    JsonWriter json;
    json.beginObject();
    json.field("correct", correct());
    json.field("attempted", _attempted);
    json.field("failed", _failed);
    json.key("metrics").beginObject();
    for (const auto &metric : _metrics) {
        json.key(metric.name).beginObject();
        json.field("value", metric.value);
        json.field("unit", metric.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

bool
sameStats(const runtime::MonitorStats &a, const runtime::MonitorStats &b)
{
    static_assert(std::has_unique_object_representations_v<
                  runtime::MonitorStats>);
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
addChecks(runtime::MonitorStats &total, const runtime::MonitorStats &stats)
{
    total.checks += stats.checks;
    total.escalations += stats.escalations;
    total.slowChecks += stats.slowChecks;
    total.tipsChecked += stats.tipsChecked;
    total.edgesChecked += stats.edgesChecked;
}

void
requireInvariants(Report &report, const runtime::MonitorStats &stats,
                  const std::string &who)
{
    std::string why;
    report.require(stats.checkInvariants(&why),
                   "monitor identity broken (" + who + "): " + why);
}

// ---------------------------------------------------------------------------
// Endpoint timing
// ---------------------------------------------------------------------------

/** Windows kept per pass for the replays: enough for stable medians,
 *  small enough to hold (a ToPA snapshot is up to 16 KiB). */
constexpr size_t max_fast_windows = 1024;
constexpr size_t max_escalated_windows = 256;

uint64_t
EndpointLog::slowChecks() const
{
    uint64_t total = 0;
    for (const auto &entry : taps)
        total += entry.second.monitor->stats().slowChecks;
    return total;
}

uint64_t
EndpointLog::compactions() const
{
    return supervisor ? supervisor->stats().compactions : 0;
}

TimingKernel::TimingKernel(Config config, EndpointLog &log)
    : runtime::FlowGuardKernel(config), _endpoints(config.endpoints),
      _log(log)
{}

cpu::SyscallResult
TimingKernel::onSyscall(cpu::Cpu &cpu, int64_t number)
{
    const auto tap = _log.taps.find(cpu.program().cr3());
    const bool barrier =
        number == static_cast<int64_t>(isa::Syscall::DlClose) ||
        number == static_cast<int64_t>(isa::Syscall::JitUnmap);
    if (tap == _log.taps.end() || !(barrier || _endpoints.count(number)))
        return FlowGuardKernel::onSyscall(cpu, number);

    const ProcessTap &proc = tap->second;
    const double cycles_before = proc.account->overheadTotal();
    const uint64_t escalations_before =
        proc.monitor->stats().escalations;
    const uint64_t slow_before = _log.slowChecks();
    const uint64_t deferred_before =
        _log.service ? _log.service->schedulerStats().deferred : 0;
    const uint64_t compactions_before = _log.compactions();

    const auto start = Clock::now();
    const cpu::SyscallResult result =
        FlowGuardKernel::onSyscall(cpu, number);
    EndpointSample sample;
    sample.hostNs = nsSince(start);

    sample.modeledCycles = proc.account->overheadTotal() - cycles_before;
    sample.barrier = barrier;
    sample.slowWork = _log.slowChecks() != slow_before;
    sample.deferred = _log.service &&
        _log.service->schedulerStats().deferred != deferred_before;
    sample.compacted = _log.compactions() != compactions_before;
    _log.samples.push_back(sample);

    // The window the kernel just judged is still in the ToPA (a
    // barrier clears it, a kill ends the process).
    if (_log.captureWindows && !barrier &&
        result.action != cpu::SyscallResult::Action::Kill) {
        const auto snap_start = Clock::now();
        std::vector<uint8_t> packets = proc.topa->snapshot();
        _log.snapshotNs.push_back(nsSince(snap_start));
        const bool escalated =
            proc.monitor->stats().escalations != escalations_before;
        auto &kept = escalated ? _log.escalated : _log.windows;
        const size_t cap =
            escalated ? max_escalated_windows : max_fast_windows;
        if (kept.size() < cap)
            kept.push_back({proc.guard, std::move(packets)});
    }
    return result;
}

// ---------------------------------------------------------------------------
// Inline protected run
// ---------------------------------------------------------------------------

InlineRun
runInline(FlowGuard &guard, const std::vector<uint8_t> &input,
          EndpointLog &log, size_t guard_index, bool telemetry)
{
    const isa::Program &program = guard.program();
    const FlowGuardConfig &config = guard.config();
    const uint64_t cr3 = program.cr3();

    cpu::CycleAccount cycles;
    telemetry::Telemetry hub;
    cpu::Cpu cpu(program);

    trace::Topa topa(config.topaRegions);
    topa.setPmiServiceLatency(config.pmiServiceLatencyBytes);
    trace::IptConfig ipt_config;
    ipt_config.cr3Filter = true;
    ipt_config.cr3Match = cr3;
    ipt_config.psbPeriodBytes = config.psbPeriodBytes;
    trace::IptEncoder encoder(ipt_config, topa, &cycles);
    cpu.addTraceSink(&encoder);

    runtime::MonitorConfig monitor_config;
    monitor_config.fastPath = config.fastPath;
    monitor_config.cacheSlowPathVerdicts = config.cacheSlowPathVerdicts;
    monitor_config.lossPolicy = config.lossPolicy;
    runtime::Monitor monitor(program, guard.itc(), guard.ocfg(),
                             guard.typearmor(), monitor_config, &cycles,
                             guard.mutablePaths());

    runtime::FlowGuardKernel::Config kernel_config;
    kernel_config.endpoints = config.endpoints;
    kernel_config.protectedCr3s = {cr3};
    TimingKernel kernel(kernel_config, log);
    kernel.attachProcess(cr3, monitor, encoder, topa, &cycles);
    kernel.setInput(input);
    cpu.setSyscallHandler(&kernel);

    if (telemetry) {
        hub.setClock([&cpu, &cycles] {
            return static_cast<uint64_t>(
                static_cast<double>(cpu.instCount()) *
                    cpu::cost::app_cpi +
                cycles.overheadTotal());
        });
        monitor.setTelemetry(&hub, cr3);
        encoder.setTelemetry(&hub, cr3);
        kernel.attachTelemetry(&hub);
    }
    log.taps[cr3] = {&monitor, &topa, &cycles, guard_index};

    InlineRun run;
    const auto start = Clock::now();
    cpu.run(50'000'000);
    run.hostNs = nsSince(start);
    log.taps.erase(cr3);

    run.monitor = monitor.stats();
    run.verdicts = monitor.verdictLog();
    run.output = kernel.output();
    return run;
}

// ---------------------------------------------------------------------------
// Per-layer replays
// ---------------------------------------------------------------------------

namespace {

/** Keeps a prefix of the retired branch stream and counts the rest. */
class BranchRecorder : public cpu::TraceSink
{
  public:
    void
    onBranch(const cpu::BranchEvent &event) override
    {
        ++seen;
        if (events.size() < max_events)
            events.push_back(event);
    }

    /** 32 MiB of events: plenty for a per-branch median. */
    static constexpr size_t max_events = size_t{1} << 20;
    std::vector<cpu::BranchEvent> events;
    uint64_t seen = 0;
};

/** Replays per window; the median over all samples is reported. */
constexpr int replay_rounds = 3;

/** Host ns x the stated clock over modeled cycles. */
double
modelRatio(double ns, double cycles)
{
    return cycles > 0.0 ? ns * model_ghz / cycles : 0.0;
}

} // namespace

LayerTimes
measureLayers(const std::vector<FlowGuard *> &guards,
              const std::vector<ReplayRun> &runs, const EndpointLog &log,
              Report &report)
{
    LayerTimes layers;

    // cpu: the interpreter alone, no sink attached.
    double interp_ns = 0.0;
    uint64_t insts = 0;
    for (const auto &run : runs) {
        const auto start = Clock::now();
        const auto result = workloads::runOnce(run.guard->program(),
                                               *run.input, nullptr,
                                               50'000'000);
        interp_ns += nsSince(start);
        insts += result.instructions;
    }
    report.add("cpu.interp.ns_per_inst",
               insts ? interp_ns / static_cast<double>(insts) : 0.0,
               "ns");

    // trace: record the branch stream, replay it into a fresh
    // encoder configured as the guard's.
    double encode_ns = 0.0;
    uint64_t encoded = 0;
    uint64_t encoded_bytes = 0;
    double encode_cycles = 0.0;
    for (const auto &run : runs) {
        BranchRecorder recorder;
        workloads::runOnce(run.guard->program(), *run.input, &recorder,
                           50'000'000);
        layers.branches += recorder.seen;
        const FlowGuardConfig &config = run.guard->config();
        trace::Topa topa(config.topaRegions);
        trace::IptConfig ipt_config;
        ipt_config.cr3Filter = true;
        ipt_config.cr3Match = run.guard->program().cr3();
        ipt_config.psbPeriodBytes = config.psbPeriodBytes;
        cpu::CycleAccount cycles;
        trace::IptEncoder encoder(ipt_config, topa, &cycles);
        const auto start = Clock::now();
        for (const auto &event : recorder.events)
            encoder.onBranch(event);
        encode_ns += nsSince(start);
        encoded += recorder.events.size();
        encoded_bytes += encoder.stats().bytes;
        encode_cycles += cycles.trace;
    }
    layers.encodeNsPerBranch =
        encoded ? encode_ns / static_cast<double>(encoded) : 0.0;
    report.add("trace.encode.ns_per_branch", layers.encodeNsPerBranch,
               "ns");
    const double branches_per_inst = insts
        ? static_cast<double>(layers.branches) / static_cast<double>(insts)
        : 0.0;
    report.add("trace.encode.bytes_per_kinst",
               encoded ? 1000.0 * branches_per_inst *
                             static_cast<double>(encoded_bytes) /
                             static_cast<double>(encoded)
                       : 0.0,
               "B/kinst");
    report.add("trace.encode.model_ratio",
               modelRatio(encode_ns, encode_cycles), "ratio");
    report.add("trace.topa.snapshot_ns", medianOf(log.snapshotNs), "ns");

    // decode + fast path on every captured window, escalated or not.
    std::vector<const CapturedWindow *> windows;
    for (const auto &window : log.windows)
        windows.push_back(&window);
    for (const auto &window : log.escalated)
        windows.push_back(&window);

    std::vector<std::unique_ptr<runtime::FastPathChecker>> fast;
    std::vector<cpu::CycleAccount> fast_cycles(guards.size());
    for (size_t g = 0; g < guards.size(); ++g)
        fast.push_back(std::make_unique<runtime::FastPathChecker>(
            guards[g]->itc(), guards[g]->program(),
            guards[g]->config().fastPath, &fast_cycles[g],
            guards[g]->paths()));

    std::vector<double> decode_ns, check_ns, edge_ns;
    double decode_total = 0.0, decode_cycles = 0.0, bytes = 0.0;
    double edge_total = 0.0, edge_cycles = 0.0;
    for (int round = 0; round < replay_rounds; ++round) {
        for (const CapturedWindow *window : windows) {
            const size_t pkt_count =
                guards[window->guard]->config().fastPath.pktCount;
            cpu::CycleAccount cycles;
            auto start = Clock::now();
            const auto flow = decode::decodeRecentTips(
                window->packets, pkt_count, &cycles);
            const double ns = nsSince(start);
            decode_ns.push_back(ns);
            decode_total += ns;
            decode_cycles += cycles.decode;
            bytes += static_cast<double>(flow.bytesScanned);

            const auto &checker = *fast[window->guard];
            start = Clock::now();
            checker.check(window->packets);
            check_ns.push_back(nsSince(start));

            const auto transitions = decode::extractTipTransitions(flow);
            cpu::CycleAccount &account = fast_cycles[window->guard];
            const double before = account.check;
            start = Clock::now();
            checker.checkTransitions(transitions);
            const double edge = nsSince(start);
            edge_ns.push_back(edge);
            edge_total += edge;
            edge_cycles += account.check - before;
        }
    }
    report.add("decode.fast.ns_per_window", medianOf(decode_ns), "ns");
    report.add("decode.fast.ns_per_byte",
               bytes > 0.0 ? decode_total / bytes : 0.0, "ns");
    report.add("decode.fast.model_ratio",
               modelRatio(decode_total, decode_cycles), "ratio");
    report.add("runtime.fast_path.check_ns", medianOf(check_ns), "ns");
    report.add("runtime.fast_path.edge_check_ns", medianOf(edge_ns),
               "ns");
    report.add("runtime.fast_path.model_ratio",
               modelRatio(edge_total, edge_cycles), "ratio");

    // slow path + monitor slow phase on the windows that escalated.
    std::vector<double> slow_ns, phase_ns;
    double slow_total = 0.0, slow_cycles = 0.0;
    for (int round = 0; round < replay_rounds; ++round) {
        for (const auto &window : log.escalated) {
            FlowGuard &guard = *guards[window.guard];
            cpu::CycleAccount cycles;
            runtime::SlowPathChecker slow(guard.ocfg(), guard.typearmor(),
                                          &cycles);
            auto start = Clock::now();
            slow.check(window.packets);
            const double ns = nsSince(start);
            slow_ns.push_back(ns);
            slow_total += ns;
            slow_cycles += cycles.decode + cycles.check;

            // A fresh monitor that only stages its verdict cache, so
            // the replay leaves the guard's graph untouched.
            runtime::MonitorConfig config;
            config.fastPath = guard.config().fastPath;
            config.autoCommitCache = false;
            runtime::Monitor monitor(guard.program(), guard.itc(),
                                     guard.ocfg(), guard.typearmor(),
                                     config);
            start = Clock::now();
            monitor.slowPhase(window.packets, false);
            phase_ns.push_back(nsSince(start));
        }
    }
    report.add("runtime.slow_path.check_ns", medianOf(slow_ns), "ns");
    report.add("runtime.slow_path.model_ratio",
               modelRatio(slow_total, slow_cycles), "ratio");
    report.add("runtime.monitor.slow_phase_ns", medianOf(phase_ns), "ns");
    return layers;
}

void
PassSplit::add(double ns, bool slow_work, bool compacted)
{
    (compacted ? recoveryNs : slow_work ? slowNs : fastNs) += ns;
}

void
PassSplit::addEndpoints(const EndpointLog &log)
{
    for (const auto &sample : log.samples)
        add(sample.hostNs, sample.slowWork, sample.compacted);
}

void
PassSplit::toReference(double speed_before, double speed_after)
{
    const double factor = referenceNs(1.0, speed_before, speed_after);
    totalNs *= factor;
    fastNs *= factor;
    slowNs *= factor;
    recoveryNs *= factor;
}

void
reportTraced(const EndpointLog &capture, const LayerTimes &layers,
             const TracedPasses &passes, Report &report)
{
    std::vector<double> endpoint_ns;
    for (const auto &sample : capture.samples)
        if (!sample.barrier)
            endpoint_ns.push_back(sample.hostNs);
    report.add("runtime.kernel.endpoint_ns.p50",
               quantileOf(endpoint_ns, 0.50), "ns");
    report.add("runtime.kernel.endpoint_ns.p99",
               quantileOf(endpoint_ns, 0.99), "ns");

    // Each layer's share of the production-configured traced pass.
    // The encoder's share is its replayed per-branch cost times the
    // branches the pass retired; the interpreter (and plain syscalls)
    // is the remainder.
    const auto &passes_default =
        passes.nullHubIsDefault ? passes.nullHub : passes.telemetryOff;
    std::vector<double> cpu, trace, fast, slow, recovery, total_ns;
    const double trace_ns = layers.encodeNsPerBranch *
                            static_cast<double>(layers.branches);
    for (const auto &pass : passes_default) {
        const double total = pass.totalNs;
        const double intercepted =
            pass.fastNs + pass.slowNs + pass.recoveryNs;
        cpu.push_back(std::max(0.0, total - intercepted - trace_ns) /
                      total);
        trace.push_back(trace_ns / total);
        fast.push_back(pass.fastNs / total);
        slow.push_back(pass.slowNs / total);
        recovery.push_back(pass.recoveryNs / total);
        total_ns.push_back(total);
    }
    report.add("share.cpu", medianOf(cpu), "ratio");
    report.add("share.trace", medianOf(trace), "ratio");
    report.add("share.runtime.fast_path", medianOf(fast), "ratio");
    report.add("share.runtime.slow_path", medianOf(slow), "ratio");
    report.add("share.recovery", medianOf(recovery), "ratio");

    const double untraced = medianOf(passes.untracedNs);
    report.add("bench.tracing_overhead_pct",
               untraced > 0.0
                   ? 100.0 * (medianOf(total_ns) - untraced) / untraced
                   : 0.0,
               "%");

    // Telemetry's cost on the layer it instruments: endpoint host time
    // with the null hub minus without, per check, paired pass by pass.
    std::vector<double> per_check;
    for (size_t i = 0; i < passes.nullHub.size() &&
                       i < passes.telemetryOff.size() &&
                       passes.checksPerPass > 0;
         ++i) {
        const auto &null = passes.nullHub[i];
        const auto &off = passes.telemetryOff[i];
        per_check.push_back(
            (null.fastNs + null.slowNs + null.recoveryNs - off.fastNs -
             off.slowNs - off.recoveryNs) /
            static_cast<double>(passes.checksPerPass));
    }
    report.add("telemetry.null_ns_per_check", medianOf(per_check), "ns");
}

double
p99VerdictAge(const EndpointLog &log,
              const runtime::SchedulerStats *scheduler)
{
    std::vector<double> ages;
    for (const auto &sample : log.samples)
        if (!sample.deferred)
            ages.push_back(sample.modeledCycles * 1e-6);
    if (scheduler)
        for (double age : scheduler->deferralAges.samples())
            ages.push_back(age * 1e-6);
    return quantileOf(ages, 0.99);
}

double
EndToEnd::addPass(size_t requests, double host_ns, double speed_before,
                  double speed_after)
{
    const double reference_ns =
        referenceNs(host_ns, speed_before, speed_after);
    const double served = static_cast<double>(requests);
    rates.push_back(served / (reference_ns * 1e-9));
    wallRates.push_back(served / (host_ns * 1e-9));
    speeds.push_back(0.5 * (speed_before + speed_after));
    return reference_ns;
}

void
EndToEnd::noteModel(Report &report, uint64_t digest) const
{
    char line[200];
    std::snprintf(line, sizeof line,
                  "modeled overhead_pct %.9g fast_path_rate %.9g "
                  "verdict_age_p99_mcycles %.9g verdicts %016llx",
                  overheadPct, fastPathRate, verdictAgeP99,
                  static_cast<unsigned long long>(digest));
    report.note(line);
}

void
EndToEnd::addTo(Report &report) const
{
    char line[200];
    std::snprintf(line, sizeof line,
                  "host wall requests_per_s %.6g host speed %.4g it/ns "
                  "(passes %zu)",
                  medianOf(wallRates), medianOf(speeds), wallRates.size());
    report.note(line);
    report.add("setup_s", medianOf(setupSeconds), "s");
    report.add("requests_per_s", medianOf(rates), "1/s");
    report.add("peak_rss_mb", peakRssMb, "MB");
    report.add("overhead_pct_modeled", overheadPct, "%");
    report.add("fast_path_rate", fastPathRate, "ratio");
    report.add("attack_detect_rate", attackDetectRate, "ratio");
    report.add("verdict_age_p99_mcycles", verdictAgeP99, "Mcycles");
}

void
reportModel(const cpu::CycleAccount &cycles,
            const runtime::MonitorStats &stats, Report &report)
{
    report.add("model.cycles.app", cycles.app * 1e-6, "Mcycles");
    report.add("model.cycles.trace", cycles.trace * 1e-6, "Mcycles");
    report.add("model.cycles.decode", cycles.decode * 1e-6, "Mcycles");
    report.add("model.cycles.check", cycles.check * 1e-6, "Mcycles");
    report.add("model.cycles.other", cycles.other * 1e-6, "Mcycles");
    const auto count = [&](const char *name, uint64_t value) {
        report.add(std::string("runtime.monitor.") + name,
                   static_cast<double>(value), "count");
    };
    count("checks", stats.checks);
    count("escalations", stats.escalations);
    count("slow_checks", stats.slowChecks);
    count("tips_checked", stats.tipsChecked);
    count("edges_checked", stats.edgesChecked);
}

} // namespace flowguard::perfbench

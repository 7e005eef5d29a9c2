/**
 * @file
 * The `cold-fleet` workload: distinct server images and plugin
 * servers (dlopen/dlclose churn) with two planted attackers, all
 * round-robin on one cpu::Machine under a ProtectionService with a
 * RecoverySupervisor journaling. Every guard is analyzed but
 * untrained, so paths seen for the first time escalate to the slow
 * path, and the verdict-cache commit and journal append write the
 * credit later fast-path checks read. It is the only workload through
 * the service, scheduler, journal and dynamic-code layers.
 */

#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "bench.hh"
#include "recovery/journal.hh"
#include "recovery/supervisor.hh"

namespace flowguard::perfbench {

namespace {

using runtime::ViolationReport;

// Sized so the slow path stays the largest share of host time: journal
// compaction grows faster than the slow path with the fleet's state,
// and at 8 x 150 requests (or 16 images x 100) it is the largest.
constexpr size_t server_images = 8;
constexpr size_t plugin_images = 2;
constexpr size_t server_requests = 100;
constexpr size_t plugin_requests = 40;
constexpr uint64_t machine_budget = 400'000'000;
/** Set-up runs per benchmark run (each ~20 ms): their median is
 *  `setup_s`. */
constexpr int setup_repeats = 21;

/**
 * Above the slow path's modeled cost per window (about 5.4 M cycles)
 * plus the queue wait this fleet builds up on the scheduler's
 * retired-instruction clock: one pass queues about 680 M modeled
 * cycles of slow-path work while the fleet retires about 0.5 M
 * instructions, so at 10 M or 100 M the circuit breaker quarantines
 * every benign process. That is bench_overload's scenario, not this
 * one.
 */
constexpr uint64_t fleet_deadline_cycles = 1'000'000'000'000ULL;

/** One analyzed binary and the graph every pass starts from. */
struct Image
{
    std::unique_ptr<workloads::SyntheticApp> app;
    std::unique_ptr<FlowGuard> guard;
    analysis::ItcCfg pristine;
};

/** One process of the fleet. */
struct Process
{
    std::string name;
    size_t image = 0;
    /** The process's own copy of the image (distinct CR3). */
    std::unique_ptr<workloads::SyntheticApp> app;
    std::vector<uint8_t> input;
    bool attack = false;
    size_t requests = 0;
    /** Benign only: what the protected run must output. */
    FlowGuard::RunOutcome unprotected;
};

struct FleetSetup
{
    std::vector<Image> images;
    std::vector<Process> procs;
    double analyzeSeconds = 0.0;
};

Image
analyzedImage(workloads::SyntheticApp app, FlowGuardConfig config,
              FleetSetup &setup)
{
    Image image;
    image.app = std::make_unique<workloads::SyntheticApp>(std::move(app));
    image.guard =
        std::make_unique<FlowGuard>(image.app->program, std::move(config));
    image.guard->analyze();
    setup.analyzeSeconds += image.guard->analyzeSeconds();
    image.pristine = image.guard->itc();
    return image;
}

workloads::ServerSpec
victimSpec(uint64_t cr3)
{
    workloads::ServerSpec spec;
    spec.name = "victim";
    spec.numHandlers = 4;
    spec.numParserStates = 2;
    spec.numFillerFuncs = 16;
    spec.fillerTableSlots = 6;
    spec.workPerRequest = 20;
    spec.implantVuln = true;
    spec.seed = 7;
    spec.cr3 = cr3;
    return spec;
}

FleetSetup
setupFleet(uint64_t seed)
{
    FleetSetup setup;
    for (size_t i = 0; i < server_images; ++i) {
        workloads::ServerSpec spec;
        spec.name = "img" + std::to_string(i);
        spec.seed = 31 + i;
        spec.cr3 = 0x10000 + 0x100 * i;
        setup.images.push_back(analyzedImage(
            workloads::buildServerApp(spec), {}, setup));
        Process proc;
        proc.name = spec.name;
        proc.image = setup.images.size() - 1;
        proc.app = std::make_unique<workloads::SyntheticApp>(
            workloads::buildServerApp(spec));
        proc.requests = server_requests;
        proc.input = workloads::makeBenignStream(
            server_requests, mixSeed(seed, i), spec.numHandlers,
            spec.numParserStates);
        setup.procs.push_back(std::move(proc));
    }
    for (size_t i = 0; i < plugin_images; ++i) {
        workloads::PluginServerSpec spec;
        spec.name = "plug" + std::to_string(i);
        spec.seed = 61 + i;
        spec.cr3 = 0x20000 + 0x100 * i;
        auto app = workloads::buildPluginServerApp(spec);
        FlowGuardConfig config;
        config.dynamicModules = app.dynamicModules;
        setup.images.push_back(
            analyzedImage(std::move(app), std::move(config), setup));
        Process proc;
        proc.name = spec.name;
        proc.image = setup.images.size() - 1;
        proc.app = std::make_unique<workloads::SyntheticApp>(
            workloads::buildPluginServerApp(spec));
        proc.requests = plugin_requests;
        proc.input = workloads::makePluginStream(
            plugin_requests, mixSeed(seed, 50 + i), spec);
        setup.procs.push_back(std::move(proc));
    }

    // Two attackers on copies of one vulnerable image.
    setup.images.push_back(analyzedImage(
        workloads::buildServerApp(victimSpec(0x30000)), {}, setup));
    const size_t victim = setup.images.size() - 1;
    const isa::Program &program = setup.images[victim].app->program;
    const auto catalog = attacks::scanGadgets(program);
    const attacks::AttackInfo planted[] = {
        attacks::buildRopWriteAttack(program, catalog),
        attacks::buildSropAttack(program, catalog),
    };
    for (size_t i = 0; i < 2; ++i) {
        Process proc;
        proc.name = planted[i].description;
        proc.image = victim;
        proc.app = std::make_unique<workloads::SyntheticApp>(
            workloads::buildServerApp(victimSpec(0x30100 + 0x100 * i)));
        proc.attack = true;
        proc.input = planted[i].request;
        setup.procs.push_back(std::move(proc));
    }
    return setup;
}

/** Times DynamicGuard::onCodeEvent from outside. */
class TimedCodeEvents : public cpu::CodeEventSink
{
  public:
    TimedCodeEvents(cpu::CodeEventSink &inner, std::vector<double> &ns)
        : _inner(inner), _ns(ns)
    {}

    void
    onCodeEvent(const cpu::CodeEvent &event) override
    {
        const auto start = Clock::now();
        _inner.onCodeEvent(event);
        _ns.push_back(nsSince(start));
    }

  private:
    cpu::CodeEventSink &_inner;
    std::vector<double> &_ns;
};

/** How one pass is wired. */
struct Wiring
{
    /** Time endpoints and code events (null: production kernels). */
    EndpointLog *log = nullptr;
    /** Wire a null-sink telemetry hub into service and supervisor. */
    bool telemetry = false;
};

/** One pass of the whole fleet, from pristine graphs. */
struct Fleet
{
    FleetSetup &setup;
    std::vector<std::unique_ptr<FlowGuard::ProcessHarness>> procs;
    std::vector<std::unique_ptr<runtime::FlowGuardKernel>> kernels;
    std::vector<std::unique_ptr<TimedCodeEvents>> timedSinks;
    std::vector<double> codeEventNs;
    telemetry::Telemetry hub;
    cpu::Machine machine;
    runtime::ProtectionService service;
    recovery::RecoverySupervisor supervisor;
    double runNs = 0.0;
    double drainNs = 0.0;
    bool drainSlow = false;
    bool drainCompacted = false;

    static runtime::ServiceConfig
    serviceConfig()
    {
        runtime::ServiceConfig config;
        config.scheduler.deadlineCycles = fleet_deadline_cycles;
        return config;
    }

    Fleet(FleetSetup &fleet_setup, const Wiring &wiring)
        : setup(fleet_setup), service(serviceConfig())
    {
        for (auto &image : setup.images)
            image.guard->itc() = image.pristine;
        service.setMachine(machine);
        supervisor.attach(service);
        if (wiring.log) {
            wiring.log->service = &service;
            wiring.log->supervisor = &supervisor;
        }

        for (size_t i = 0; i < setup.procs.size(); ++i) {
            Process &proc = setup.procs[i];
            FlowGuard &guard = *setup.images[proc.image].guard;
            const isa::Program &program = proc.app->program;
            const uint64_t cr3 = program.cr3();
            procs.push_back(guard.makeProcessHarness(program));
            auto &harness = *procs.back();
            if (wiring.log) {
                kernels.push_back(std::make_unique<TimingKernel>(
                    runtime::FlowGuardKernel::Config{}, *wiring.log));
                wiring.log->taps[cr3] = {harness.monitor.get(),
                                         harness.topa.get(),
                                         &harness.cycles, proc.image};
            } else {
                kernels.push_back(std::make_unique<runtime::FlowGuardKernel>(
                    runtime::FlowGuardKernel::Config{}));
            }
            auto &kernel = *kernels.back();
            kernel.attachService(service);
            kernel.setInput(proc.input);
            if (harness.dyn) {
                if (wiring.log) {
                    timedSinks.push_back(std::make_unique<TimedCodeEvents>(
                        *harness.dyn, codeEventNs));
                    kernel.addCodeEventSink(timedSinks.back().get());
                } else {
                    kernel.addCodeEventSink(harness.dyn.get());
                }
            }
            // Module churn reaches the journal too, so replay never
            // restores credit onto a retired range.
            kernel.addCodeEventSink(&supervisor);
            harness.cpu->setSyscallHandler(&kernel);
            service.addProcess(cr3, *harness.monitor, *harness.encoder,
                               *harness.topa, *harness.cpu,
                               &harness.cycles);
            supervisor.addProcess(cr3, *harness.monitor,
                                  harness.itc ? *harness.itc : guard.itc(),
                                  *harness.cpu, harness.dyn.get());
            machine.addProcess(*harness.cpu);
        }
        machine.setQuantum(2'000);
        if (wiring.telemetry) {
            service.setTelemetry(&hub);
            supervisor.setTelemetry(&hub);
        }
    }

    uint64_t
    slowChecks() const
    {
        uint64_t total = 0;
        for (const auto &proc : procs)
            total += proc->monitor->stats().slowChecks;
        return total;
    }

    void
    run()
    {
        service.attachAll();
        auto start = Clock::now();
        machine.run(machine_budget);
        runNs = nsSince(start);
        const uint64_t slow_before = slowChecks();
        const uint64_t compactions_before = supervisor.stats().compactions;
        start = Clock::now();
        service.drain();
        drainNs = nsSince(start);
        drainSlow = slowChecks() != slow_before;
        drainCompacted =
            supervisor.stats().compactions != compactions_before;
    }

    bool
    convicted(size_t i) const
    {
        const uint64_t cr3 = setup.procs[i].app->program.cr3();
        for (const auto &report : kernels[i]->violations())
            if (report.kind == ViolationReport::Kind::CfiViolation)
                return true;
        for (const auto &report : service.reports())
            if (report.cr3 == cr3 &&
                report.kind == ViolationReport::Kind::CfiViolation)
                return true;
        return false;
    }

    /** Gates the pass; returns the attack detection rate. */
    double
    gate(Report &report) const
    {
        size_t planted = 0, detected = 0;
        for (size_t i = 0; i < setup.procs.size(); ++i) {
            const Process &proc = setup.procs[i];
            const auto &monitor = procs[i]->monitor->stats();
            const uint64_t cr3 = proc.app->program.cr3();
            requireInvariants(report, monitor, proc.name);
            report.require(supervisor.ledger().identityHolds(
                               cr3, procs[i]->cpu->instCount()),
                           proc.name + ": gap-ledger identity broken");
            if (proc.attack) {
                ++planted;
                const bool caught = convicted(i);
                detected += caught ? 1 : 0;
                report.ops(1, caught ? 0 : 1,
                           "attack not convicted: " + proc.name);
                continue;
            }
            // Any report against a benign process is a failed check:
            // a conviction, a timeout or a quarantine.
            uint64_t bad = kernels[i]->violations().size();
            for (const auto &filed : service.reports())
                bad += filed.cr3 == cr3 ? 1 : 0;
            const bool same_output =
                kernels[i]->output() == proc.unprotected.output;
            report.ops(monitor.checks, bad + (same_output ? 0 : 1),
                       proc.name + ": benign checks convicted, timed "
                       "out or quarantined, or output differs from "
                       "the unprotected run");
        }
        std::string why;
        report.require(service.stats().checkInvariants(&why),
                       "service identity broken: " + why);
        report.require(service.schedulerStats().checkInvariants(
                           service.scheduler().depth(), &why),
                       "scheduler identity broken: " + why);
        report.require(service.accountingBalances(),
                       "scheduler accounting does not balance");
        return planted ? static_cast<double>(detected) /
                             static_cast<double>(planted)
                       : 0.0;
    }

    /** Digest of every process's verdicts and monitor counters. */
    uint64_t
    digest() const
    {
        uint64_t value = digestOf({});
        for (const auto &proc : procs) {
            value = digestOf(proc->monitor->verdictLog(), value);
            value = digestOf(proc->monitor->stats(), value);
        }
        return value;
    }

    bool
    sameAs(const Fleet &other) const
    {
        for (size_t i = 0; i < procs.size(); ++i)
            if (procs[i]->monitor->verdictLog() !=
                    other.procs[i]->monitor->verdictLog() ||
                !sameStats(procs[i]->monitor->stats(),
                           other.procs[i]->monitor->stats()))
                return false;
        return true;
    }
};

} // namespace

Report
runColdFleet(const Options &options)
{
    Report report;
    report.note("workload " + options.workload + " seed " +
                std::to_string(options.seed));

    EndToEnd result;
    FleetSetup setup;
    result.setupSeconds =
        repeatSetup(setup_repeats, options.trace, [&] {
            setup = FleetSetup{};
            setup = setupFleet(options.seed);
        });

    size_t pass_requests = 0;
    for (auto &proc : setup.procs) {
        pass_requests += proc.requests;
        if (!proc.attack)
            proc.unprotected =
                setup.images[proc.image].guard->runUnprotected(proc.input);
    }

    // Reference-host ns of one production pass.
    const auto measuredRun = [&](Fleet &fleet) {
        const double before = hostSpeed();
        fleet.run();
        return result.addPass(pass_requests, fleet.runNs + fleet.drainNs,
                              before, hostSpeed());
    };

    // Reference pass: production kernels. Every later pass, traced or
    // not, must reproduce its verdicts.
    Fleet reference(setup, {});
    measuredRun(reference);
    result.attackDetectRate = reference.gate(report);

    // The timing pass: endpoint and code-event samples, windows.
    EndpointLog capture;
    capture.captureWindows = options.trace;
    Fleet timed(setup, {&capture, false});
    timed.run();
    timed.gate(report);
    report.require(timed.sameAs(reference),
                   "the timing wiring changed the fleet's verdicts");
    // Before the repeated passes, so the reading does not depend on
    // how many passes the host's speed allowed.
    result.peakRssMb = peakRssMb();

    // Modeled metrics, from the reference pass: deterministic.
    cpu::CycleAccount cycles;
    runtime::MonitorStats stats;
    for (size_t i = 0; i < setup.procs.size(); ++i) {
        if (setup.procs[i].attack)
            continue;
        const auto &harness = *reference.procs[i];
        cpu::CycleAccount account = harness.cycles;
        account.app = static_cast<double>(harness.cpu->instCount()) *
                      cpu::cost::app_cpi;
        cycles += account;
        addChecks(stats, harness.monitor->stats());
    }
    result.overheadPct = 100.0 * cycles.overheadTotal() / cycles.app;
    result.fastPathRate = stats.fastPathRate();

    const auto &sched = reference.service.schedulerStats();
    result.verdictAgeP99 = p99VerdictAge(capture, &sched);
    result.noteModel(report, reference.digest());

    TracedPasses traced;
    traced.nullHubIsDefault = false;
    std::vector<double> drain_ns, read_ns, compact_ns;
    const auto start = Clock::now();
    do {
        Fleet plain(setup, {});
        const double ns = measuredRun(plain);
        plain.gate(report);
        report.require(plain.sameAs(reference),
                       "a repeated pass changed the fleet's verdicts");
        if (!options.trace)
            continue;
        traced.untracedNs.push_back(ns);
        for (const bool telemetry : {false, true}) {
            EndpointLog log;
            Fleet fleet(setup, {&log, telemetry});
            const double before = hostSpeed();
            fleet.run();
            report.require(fleet.sameAs(reference),
                           "the timing wiring changed the fleet's "
                           "verdicts");
            PassSplit split;
            split.totalNs = fleet.runNs + fleet.drainNs;
            split.addEndpoints(log);
            split.add(fleet.drainNs, fleet.drainSlow, fleet.drainCompacted);
            split.toReference(before, hostSpeed());
            (telemetry ? traced.nullHub : traced.telemetryOff)
                .push_back(split);
            if (telemetry)
                continue;
            drain_ns.push_back(fleet.drainNs);
            auto begin = Clock::now();
            const auto journal =
                recovery::readJournal(fleet.supervisor.journal().bytes());
            read_ns.push_back(nsSince(begin));
            report.require(journal.status ==
                               ProfileLoadResult::Status::Ok,
                           "the final journal does not read back");
            begin = Clock::now();
            fleet.supervisor.compactNow();
            compact_ns.push_back(nsSince(begin));
        }
    } while (secondsSince(start) < options.seconds ||
             (options.trace && traced.nullHub.size() < 2));

    if (!options.trace) {
        result.addTo(report);
        return report;
    }

    std::vector<FlowGuard *> guards;
    for (auto &image : setup.images)
        guards.push_back(image.guard.get());
    std::vector<ReplayRun> runs;
    for (const auto &proc : setup.procs)
        runs.push_back({guards[proc.image], &proc.input});
    traced.checksPerPass = 0;
    for (const auto &harness : reference.procs)
        traced.checksPerPass += harness->monitor->stats().checks;

    // The replays read the graphs as the untrained guards start.
    for (auto &image : setup.images)
        image.guard->itc() = image.pristine;
    const LayerTimes layers = measureLayers(guards, runs, capture, report);
    reportTraced(capture, layers, traced, report);
    reportModel(cycles, stats, report);

    std::vector<double> endpoint_ns;
    for (const auto &sample : capture.samples)
        if (!sample.barrier)
            endpoint_ns.push_back(sample.hostNs);
    report.add("runtime.service.on_endpoint_ns", medianOf(endpoint_ns),
               "ns");
    report.add("runtime.service.drain_ns", medianOf(drain_ns), "ns");
    report.add("recovery.journal.read_ns", medianOf(read_ns), "ns");
    report.add("recovery.compact_ns", medianOf(compact_ns), "ns");
    report.add("dynamic.code_event_ns", medianOf(timed.codeEventNs), "ns");
    const auto count = [&](const char *name, double value) {
        report.add(name, value, "count");
    };
    count("runtime.scheduler.submitted", sched.submitted);
    count("runtime.scheduler.deferred", sched.deferred);
    count("runtime.scheduler.forced_runs", sched.forcedRuns);
    count("runtime.scheduler.max_queue_depth", sched.maxQueueDepth);
    const auto &recovery = reference.supervisor.stats();
    count("recovery.journal.appends", recovery.journalAppends);
    count("dynamic.barrier_checks", reference.service.stats().barrierChecks);
    report.add("recovery.journal.bytes",
               reference.supervisor.journal().bytes().size(), "B");
    report.add("analysis.analyze_s", setup.analyzeSeconds, "s");
    report.add("fuzz.train_s", 0.0, "s");
    return report;
}

} // namespace flowguard::perfbench

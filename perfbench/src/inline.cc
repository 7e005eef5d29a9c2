/**
 * @file
 * The inline workloads, `serve` and `storm`: each protected server
 * runs alone through FlowGuard::run, one closed-loop process at a
 * time (it reads its next request only after serving the last).
 *
 *  - serve: the four Figure 5(a) servers. Host time goes to the
 *    interpreter and the IPT encoder. Planted: ROP, SROP and ret2lib
 *    against a vulnerable nginx.
 *  - storm: one endpoint-dense server (minimal work per request, about
 *    130 retired instructions per endpoint syscall), so host time goes
 *    to the fast-path check stack. The server itself carries the
 *    implanted vulnerability the same three attacks ride.
 *
 * Each server is warmed up with one pass of its load, so every
 * measured check passes the fast path.
 */

#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "bench.hh"

namespace flowguard::perfbench {

namespace {

/** How an inline workload is sized. */
struct InlineWorkload
{
    /** The servers measured, one closed-loop process each. */
    std::vector<workloads::ServerSpec> servers;
    /** The vulnerable server the attacks ride; index into `servers`,
     *  or `servers.size()` for a separate, attack-only server built
     *  from `victimSpec`. */
    size_t victim = 0;
    workloads::ServerSpec victimSpec;
    /** Requests each server serves per measured pass (and once to
     *  warm up). */
    size_t loadRequests = 160;
    /** Set-up runs per benchmark run: their median is `setup_s`. */
    int setupRepeats = 3;
};

/** Training corpus: benign streams of 10 requests each, as
 *  bench_fig5a_servers trains; an attack-only victim gets fewer. */
constexpr size_t corpus_streams = 60;
constexpr size_t victim_corpus_streams = 6;

/** One trained, warmed-up protected server. */
struct Target
{
    workloads::ServerSpec spec;
    std::unique_ptr<workloads::SyntheticApp> app;
    std::unique_ptr<FlowGuard> guard;
    /** The warmed-up graph every measured pass starts from. */
    analysis::ItcCfg warm;
    std::vector<uint8_t> load;
    size_t requests = 0;
    /** Unprotected run of `load`: what a protected run must output. */
    FlowGuard::RunOutcome unprotected;
    /** The first protected pass: every later pass must repeat it. */
    FlowGuard::RunOutcome reference;
};

struct Setup
{
    std::vector<Target> targets;    ///< measured servers, then victim
    double analyzeSeconds = 0.0;
    double trainSeconds = 0.0;
};

Target
setupTarget(const workloads::ServerSpec &spec, uint64_t seed,
            size_t training_streams, size_t load_requests, Setup &setup)
{
    Target target;
    target.spec = spec;
    target.app = std::make_unique<workloads::SyntheticApp>(
        workloads::buildServerApp(spec));
    target.guard = std::make_unique<FlowGuard>(target.app->program);
    target.guard->analyze();
    setup.analyzeSeconds += target.guard->analyzeSeconds();

    const auto stream = [&](size_t requests, uint64_t salt) {
        return workloads::makeBenignStream(requests,
                                           mixSeed(seed, salt),
                                           spec.numHandlers,
                                           spec.numParserStates);
    };
    std::vector<fuzz::Input> corpus;
    for (size_t i = 0; i < training_streams; ++i)
        corpus.push_back(stream(10, 100 + i));
    const auto train_start = Clock::now();
    target.guard->trainWithCorpus(corpus);
    setup.trainSeconds += secondsSince(train_start);

    // Warm-up: one pass of the load caches its slow-path verdicts into
    // the graph, so measured passes see the steady state a persistent
    // kernel module serves repeated traffic in (§7.1.1; bench_fig5a
    // measures the same way).
    target.requests = load_requests;
    target.load = stream(load_requests, 1);
    if (load_requests > 0)
        target.guard->run(target.load);
    target.warm = target.guard->itc();
    return target;
}

Setup
setupWorkload(const InlineWorkload &workload, uint64_t seed)
{
    Setup setup;
    for (size_t i = 0; i < workload.servers.size(); ++i)
        setup.targets.push_back(setupTarget(
            workload.servers[i], mixSeed(seed, i), corpus_streams,
            workload.loadRequests, setup));
    if (workload.victim == workload.servers.size())
        setup.targets.push_back(setupTarget(
            workload.victimSpec, mixSeed(seed, workload.victim),
            victim_corpus_streams, 0, setup));
    return setup;
}

/** Gates one benign protected run. */
void
gateBenign(const Target &target, const FlowGuard::RunOutcome &outcome,
           Report &report)
{
    const bool same_output =
        outcome.output == target.unprotected.output &&
        outcome.stop == target.unprotected.stop &&
        outcome.exitCode == target.unprotected.exitCode;
    const uint64_t bad = outcome.violations.size() + (same_output ? 0 : 1);
    report.ops(outcome.monitor.checks, bad,
               target.spec.name + ": benign checks convicted or output "
               "differs from the unprotected run");
    requireInvariants(report, outcome.monitor, target.spec.name);
}

/** The first protected pass is the reference; later ones repeat it. */
void
gateRepeat(Target &target, FlowGuard::RunOutcome outcome, Report &report,
           bool first)
{
    if (first) {
        target.reference = std::move(outcome);
        return;
    }
    report.require(outcome.verdicts == target.reference.verdicts &&
                       sameStats(outcome.monitor,
                                 target.reference.monitor),
                   target.spec.name +
                       ": a repeated pass changed its verdicts");
}

/** Runs the planted attacks; returns the detection rate. */
double
runAttacks(Target &victim, Report &report)
{
    const isa::Program &program = victim.app->program;
    const auto catalog = attacks::scanGadgets(program);
    const std::vector<attacks::AttackInfo> planted = {
        attacks::buildRopWriteAttack(program, catalog),
        attacks::buildSropAttack(program, catalog),
        attacks::buildRet2LibAttack(program, catalog),
    };
    size_t detected = 0;
    for (const auto &attack : planted) {
        victim.guard->itc() = victim.warm;
        const auto outcome = victim.guard->run(attack.request);
        bool convicted = false;
        for (const auto &violation : outcome.violations)
            convicted |= violation.kind ==
                runtime::ViolationReport::Kind::CfiViolation;
        detected += convicted ? 1 : 0;
        report.ops(1, convicted ? 0 : 1,
                   "attack not convicted: " + attack.description);
    }
    victim.guard->itc() = victim.warm;
    return static_cast<double>(detected) /
           static_cast<double>(planted.size());
}

/** Layers only the cold-fleet workload routes through. */
void
reportBypassedLayers(Report &report)
{
    for (const char *name :
         {"runtime.service.on_endpoint_ns", "runtime.service.drain_ns",
          "recovery.journal.read_ns", "recovery.compact_ns",
          "dynamic.code_event_ns"})
        report.add(name, 0.0, "ns");
    for (const char *name :
         {"runtime.scheduler.submitted", "runtime.scheduler.deferred",
          "runtime.scheduler.forced_runs",
          "runtime.scheduler.max_queue_depth", "recovery.journal.appends",
          "dynamic.barrier_checks"})
        report.add(name, 0.0, "count");
    report.add("recovery.journal.bytes", 0.0, "B");
}

Report
runInlineWorkload(const InlineWorkload &workload, const Options &options)
{
    Report report;
    report.note("workload " + options.workload + " seed " +
                std::to_string(options.seed));

    EndToEnd result;
    Setup setup;
    result.setupSeconds =
        repeatSetup(workload.setupRepeats, options.trace, [&] {
            setup = Setup{};
            setup = setupWorkload(workload, options.seed);
        });
    const size_t measured = workload.servers.size();
    std::vector<Target> &targets = setup.targets;
    for (size_t i = 0; i < measured; ++i)
        targets[i].unprotected =
            targets[i].guard->runUnprotected(targets[i].load);

    // One protected pass over every server, each from its warm graph.
    const auto protectedPass = [&](bool first) {
        double ns = 0.0;
        for (size_t i = 0; i < measured; ++i) {
            Target &target = targets[i];
            target.guard->itc() = target.warm;
            const auto start = Clock::now();
            auto outcome = target.guard->run(target.load);
            ns += nsSince(start);
            gateBenign(target, outcome, report);
            gateRepeat(target, std::move(outcome), report, first);
        }
        return ns;
    };
    // The same pass through the benchmark's own wiring.
    const auto wiredPass = [&](EndpointLog &log, bool telemetry) {
        PassSplit split;
        const double before = hostSpeed();
        for (size_t i = 0; i < measured; ++i) {
            Target &target = targets[i];
            target.guard->itc() = target.warm;
            const InlineRun run =
                runInline(*target.guard, target.load, log, i, telemetry);
            split.totalNs += run.hostNs;
            const bool same =
                run.verdicts == target.reference.verdicts &&
                sameStats(run.monitor, target.reference.monitor) &&
                run.output == target.reference.output;
            report.require(same,
                           target.spec.name +
                               ": the timing wiring changed the "
                               "verdicts of FlowGuard::run");
        }
        split.addEndpoints(log);
        split.toReference(before, hostSpeed());
        return split;
    };

    size_t pass_requests = 0;
    for (size_t i = 0; i < measured; ++i)
        pass_requests += targets[i].requests;
    // Reference-host ns of one production pass.
    const auto measuredPass = [&](bool first) {
        const double before = hostSpeed();
        const double ns = protectedPass(first);
        return result.addPass(pass_requests, ns, before, hostSpeed());
    };

    measuredPass(true);
    // The timing pass: verdict ages, fidelity and, traced, the windows
    // the layer replays run on.
    EndpointLog capture;
    capture.captureWindows = options.trace;
    wiredPass(capture, true);
    // Before the repeated passes, so the reading does not depend on
    // how many passes the host's speed allowed.
    result.peakRssMb = peakRssMb();

    TracedPasses traced;
    const auto start = Clock::now();
    do {
        const double ns = measuredPass(false);
        if (options.trace) {
            traced.untracedNs.push_back(ns);
            EndpointLog off, null;
            traced.telemetryOff.push_back(wiredPass(off, false));
            traced.nullHub.push_back(wiredPass(null, true));
        }
    } while (secondsSince(start) < options.seconds ||
             (options.trace && traced.nullHub.size() < 2));

    Target &victim = targets[workload.victim];
    result.attackDetectRate = runAttacks(victim, report);

    // Modeled metrics come from the reference pass: deterministic.
    cpu::CycleAccount cycles;
    runtime::MonitorStats stats;
    uint64_t digest = digestOf({});
    for (size_t i = 0; i < measured; ++i) {
        const auto &reference = targets[i].reference;
        cycles += reference.cycles;
        addChecks(stats, reference.monitor);
        digest = digestOf(reference.verdicts, digest);
        digest = digestOf(reference.monitor, digest);
    }
    result.overheadPct = 100.0 * cycles.overheadTotal() / cycles.app;
    result.fastPathRate = stats.fastPathRate();
    result.verdictAgeP99 = p99VerdictAge(capture, nullptr);
    result.noteModel(report, digest);
    if (!options.trace) {
        result.addTo(report);
        return report;
    }

    std::vector<FlowGuard *> guards;
    std::vector<ReplayRun> runs;
    for (size_t i = 0; i < measured; ++i) {
        guards.push_back(targets[i].guard.get());
        runs.push_back({targets[i].guard.get(), &targets[i].load});
    }
    traced.checksPerPass = stats.checks;
    const LayerTimes layers = measureLayers(guards, runs, capture, report);
    reportTraced(capture, layers, traced, report);
    reportModel(cycles, stats, report);
    reportBypassedLayers(report);
    report.add("analysis.analyze_s", setup.analyzeSeconds, "s");
    report.add("fuzz.train_s", setup.trainSeconds, "s");
    return report;
}

} // namespace

Report
runServe(const Options &options)
{
    InlineWorkload workload;
    workload.servers = workloads::serverSuite();
    workload.victim = workload.servers.size();
    workload.victimSpec = workloads::serverSuite(true)[0];
    return runInlineWorkload(workload, options);
}

Report
runStorm(const Options &options)
{
    workloads::ServerSpec spec;
    spec.name = "storm";
    spec.workPerRequest = 1;
    spec.implantVuln = true;
    spec.seed = 21;
    spec.cr3 = 0x2100;

    InlineWorkload workload;
    workload.servers = {spec};
    workload.victim = 0;
    workload.loadRequests = 8000;
    workload.setupRepeats = 5;
    return runInlineWorkload(workload, options);
}

} // namespace flowguard::perfbench

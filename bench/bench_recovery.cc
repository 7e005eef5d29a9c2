/**
 * @file
 * Crash-recovery bench: protection-gap length and restart replay cost
 * across the three RecoveryPolicies.
 *
 * Sweep 1 (gap length): a protected fleet takes a checker crash at
 * seeded cycles while the watchdog's detection window (heartbeat
 * interval x missed-heartbeat threshold) sweeps. For each (policy,
 * window) point the bench reports the gap-width distribution
 * (mean / p95 / max over crash points x processes), downtime, and the
 * FailClosed freeze cost. Expected shape: gap width grows with the
 * detection window; FailClosed's gap is bounded by detection alone —
 * the restart latency shows up as frozen cycles, not unchecked ones.
 *
 * Sweep 2 (replay cost): an untrained guard escalates every endpoint
 * to the slow path and commits credit, so the journal fills with
 * CreditCommit records; sweeping the compaction threshold shows the
 * recovery-time trade — frequent compaction keeps the replayed tail
 * short at the price of more snapshot serializations, never
 * compacting replays the whole history at restart.
 *
 * Results go to stdout and BENCH_recovery.json. `--smoke` shrinks the
 * sweeps; any acceptance-property failure (a benign kill, a broken
 * cycle-accounting identity, a survived crash with no gap report, a
 * lost attack) makes the process exit non-zero, so the smoke run
 * doubles as a CI regression gate.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "bench_common.hh"
#include "cpu/machine.hh"
#include "recovery/supervisor.hh"
#include "runtime/kernel.hh"
#include "runtime/service.hh"
#include "support/stats.hh"
#include "telemetry/metrics.hh"
#include "trace/faults.hh"

namespace {

using namespace flowguard;
using namespace flowguard::bench;
using namespace flowguard::recovery;
using runtime::FlowGuardKernel;
using runtime::ProtectionService;
using runtime::ServiceConfig;
using runtime::ViolationReport;

constexpr uint64_t base_cr3 = 0xBE00;

bool smoke = false;
int failures = 0;

void
require(bool ok, const char *what)
{
    if (!ok) {
        std::printf("ACCEPTANCE FAILED: %s\n", what);
        ++failures;
    }
}

workloads::ServerSpec
fleetSpec(uint64_t cr3)
{
    workloads::ServerSpec spec;
    spec.name = "recovery";
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

ServiceConfig
calmService()
{
    ServiceConfig config;
    config.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    config.breakerThreshold = 1'000'000;
    return config;
}

/**
 * A fleet of server processes on one machine behind one protection
 * service, with a RecoverySupervisor and a FaultInjector that crashes
 * the checker on a scheduled virtual cycle. Mirrors the recovery test
 * harness; bench binaries cannot include tests/ headers.
 */
struct Fleet
{
    std::vector<workloads::SyntheticApp> apps;
    std::vector<std::unique_ptr<FlowGuard::ProcessHarness>> procs;
    std::vector<std::unique_ptr<FlowGuardKernel>> kernels;
    cpu::Machine machine;
    ProtectionService service;
    RecoverySupervisor supervisor;
    trace::FaultInjector faults;

    Fleet(FlowGuard &guard, RecoveryConfig rconfig,
          trace::ControlFaultPlan plan, uint64_t fault_seed,
          const std::vector<std::vector<uint8_t>> &inputs)
        : service(calmService()), supervisor(rconfig),
          faults(fault_seed)
    {
        faults.setControlPlan(plan);
        service.setMachine(machine);
        service.setFaultInjector(faults);
        supervisor.attach(service);
        supervisor.setFaultInjector(faults);
        for (size_t i = 0; i < inputs.size(); ++i)
            apps.push_back(
                workloads::buildServerApp(fleetSpec(base_cr3 + i)));
        for (size_t i = 0; i < inputs.size(); ++i) {
            procs.push_back(
                guard.makeProcessHarness(apps[i].program));
            kernels.push_back(std::make_unique<FlowGuardKernel>(
                FlowGuardKernel::Config{}));
            kernels[i]->attachService(service);
            kernels[i]->setInput(inputs[i]);
            kernels[i]->addCodeEventSink(&supervisor);
            procs[i]->cpu->setSyscallHandler(kernels[i].get());
            service.addProcess(apps[i].program.cr3(),
                               *procs[i]->monitor,
                               *procs[i]->encoder, *procs[i]->topa,
                               *procs[i]->cpu, &procs[i]->cycles);
            supervisor.addProcess(apps[i].program.cr3(),
                                  *procs[i]->monitor, guard.itc(),
                                  *procs[i]->cpu);
            machine.addProcess(*procs[i]->cpu);
        }
        machine.setQuantum(2'000);
    }

    void
    run()
    {
        service.attachAll();
        machine.run(20'000'000);
        service.drain();
    }

    uint64_t
    totalKills() const
    {
        uint64_t kills = 0;
        for (const auto &kernel : kernels)
            kills += kernel->kills();
        return kills;
    }

    bool
    identityHolds() const
    {
        for (size_t i = 0; i < procs.size(); ++i)
            if (!supervisor.ledger().identityHolds(
                    apps[i].program.cr3(),
                    procs[i]->cpu->instCount()))
                return false;
        return true;
    }
};

std::vector<std::vector<uint8_t>>
benignInputs(size_t requests)
{
    return {workloads::makeBenignStream(requests, 11, 4, 2),
            workloads::makeBenignStream(requests, 12, 4, 2)};
}

// ---------------------------------------------------------------------------
// Sweep 1: gap length vs detection window, per policy.
// ---------------------------------------------------------------------------

struct GapPoint
{
    RecoveryPolicy policy = RecoveryPolicy::ResyncAndAudit;
    uint64_t detectWindow = 0;      ///< heartbeat x missed threshold
    size_t runs = 0;
    size_t crashedRuns = 0;
    size_t restartedRuns = 0;
    Distribution gapWidths;         ///< cycles, per closed gap
    uint64_t downtimeCycles = 0;
    uint64_t frozenCycles = 0;
    uint64_t totalKills = 0;
};

GapPoint
gapSweepPoint(FlowGuard &guard, RecoveryPolicy policy,
              uint64_t detect_window, size_t crash_points)
{
    GapPoint point;
    point.policy = policy;
    point.detectWindow = detect_window;
    const auto inputs = benignInputs(20);
    for (size_t k = 0; k < crash_points; ++k) {
        RecoveryConfig rconfig;
        rconfig.policy = policy;
        rconfig.heartbeatIntervalCycles = detect_window / 2;
        rconfig.missedHeartbeatsToDeclareDead = 2;
        rconfig.restartLatencyCycles = 600;
        rconfig.compactEveryRecords = 64;
        trace::ControlFaultPlan plan;
        // A ~11k-cycle run: points span its first two thirds, so
        // every point crashes and nearly all warm-restart in-run.
        plan.monitorCrashAtCycle = 1'000 + 1'300 * k;
        plan.tornJournalOnCrash = k % 2 == 0;
        Fleet fleet(guard, rconfig, plan, 40 + k, inputs);
        fleet.run();

        ++point.runs;
        const auto &stats = fleet.supervisor.stats();
        point.crashedRuns += stats.crashes != 0;
        point.restartedRuns += stats.restarts != 0;
        point.gapWidths.merge(fleet.supervisor.gapWidths());
        point.downtimeCycles += stats.downtimeCycles;
        point.frozenCycles += stats.frozenCycles;
        point.totalKills += fleet.totalKills();

        require(fleet.totalKills() == 0,
                "benign process killed during recovery");
        require(fleet.identityHolds(),
                "cycle-accounting identity broken");
        require(fleet.service.accountingBalances(),
                "service window accounting unbalanced");
        if (stats.crashes != 0)
            require(!fleet.supervisor.reports().empty(),
                    "crash survived without a gap report");
        guard.itc().clearRuntime();
    }
    require(point.crashedRuns == point.runs,
            "gap sweep point with a crash that never fired");
    return point;
}

// ---------------------------------------------------------------------------
// Sweep 2: replay cost vs compaction threshold.
// ---------------------------------------------------------------------------

struct ReplayPoint
{
    size_t compactEvery = 0;        ///< 0 = never compact
    uint64_t journalAppends = 0;
    uint64_t compactions = 0;
    uint64_t replayedRecords = 0;
    uint64_t replayedTransitions = 0;
    uint64_t snapshotBytes = 0;
};

ReplayPoint
replaySweepPoint(const workloads::SyntheticApp &app,
                 size_t compact_every)
{
    // Untrained guard: every endpoint escalates, passes on the slow
    // path, and commits credit — a journal-heavy steady state.
    FlowGuardConfig config;
    config.topaRegions = {4096, 4096};
    FlowGuard guard(app.program, config);
    guard.analyze();

    ReplayPoint point;
    point.compactEvery = compact_every;
    RecoveryConfig rconfig;
    rconfig.policy = RecoveryPolicy::ResyncAndAudit;
    rconfig.heartbeatIntervalCycles = 500;
    rconfig.missedHeartbeatsToDeclareDead = 2;
    rconfig.restartLatencyCycles = 600;
    rconfig.compactEveryRecords = compact_every;
    trace::ControlFaultPlan plan;
    plan.monitorCrashAtCycle = 6'000;
    Fleet fleet(guard, rconfig, plan, 77, benignInputs(20));
    fleet.run();

    const auto &stats = fleet.supervisor.stats();
    point.journalAppends = stats.journalAppends;
    point.compactions = stats.compactions;
    point.replayedRecords = stats.replayedRecords;
    point.replayedTransitions = stats.replayedTransitions;
    point.snapshotBytes = stats.snapshotBytes;

    require(stats.restarts == 1, "replay sweep run never restarted");
    require(fleet.totalKills() == 0,
            "benign process killed in replay sweep");
    require(fleet.identityHolds(),
            "cycle-accounting identity broken in replay sweep");
    return point;
}

// ---------------------------------------------------------------------------
// Attack-survival spot check: conviction must survive a warm restart.
// ---------------------------------------------------------------------------

struct AttackResult
{
    bool baselineDetected = false;
    size_t crashedRuns = 0;
    size_t detectedRuns = 0;
};

bool
attackConvicted(const Fleet &fleet, uint64_t attacked_cr3)
{
    for (const auto &kernel : fleet.kernels)
        for (const auto &report : kernel->violations())
            if (report.cr3 == attacked_cr3)
                return true;
    for (const auto &report : fleet.service.reports())
        if (report.cr3 == attacked_cr3)
            return true;
    // A crash that swallowed the attack window leaves conviction to
    // the restart's audit-only catch-up check.
    for (const auto &report : fleet.supervisor.reports())
        if (report.cr3 == attacked_cr3 &&
            report.kind != ViolationReport::Kind::ProtectionGap)
            return true;
    return false;
}

AttackResult
attackSurvival(FlowGuard &guard, const workloads::SyntheticApp &app,
               size_t crash_points)
{
    AttackResult result;
    const auto catalog = attacks::scanGadgets(app.program);
    const auto attack =
        attacks::buildRopWriteAttack(app.program, catalog);
    // The long benign neighbor keeps the machine alive well past the
    // attack, so every crash point below warm-restarts in time for
    // the catch-up check to see the attacked trace.
    const std::vector<std::vector<uint8_t>> inputs = {
        workloads::makeBenignStream(40, 31, 4, 2), attack.request};
    const uint64_t attacked_cr3 = base_cr3 + 1;

    RecoveryConfig rconfig;
    rconfig.heartbeatIntervalCycles = 300;
    rconfig.missedHeartbeatsToDeclareDead = 2;
    rconfig.restartLatencyCycles = 600;
    rconfig.compactEveryRecords = 64;

    {
        Fleet baseline(guard, rconfig, trace::ControlFaultPlan{}, 3,
                       inputs);
        baseline.run();
        result.baselineDetected =
            attackConvicted(baseline, attacked_cr3);
        guard.itc().clearRuntime();
    }

    for (size_t k = 0; k < crash_points; ++k) {
        trace::ControlFaultPlan plan;
        plan.monitorCrashAtCycle = 150 + 600 * k;
        plan.tornJournalOnCrash = k % 2 == 0;
        Fleet fleet(guard, rconfig, plan, 90 + k, inputs);
        fleet.run();
        const bool detected = attackConvicted(fleet, attacked_cr3);
        result.crashedRuns += fleet.supervisor.stats().crashes != 0;
        result.detectedRuns += detected;
        require(detected,
                "attack lost across a warm restart (not even the "
                "catch-up audit convicted it)");
        guard.itc().clearRuntime();
    }
    return result;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

void
printGapTable(const std::vector<GapPoint> &points)
{
    TablePrinter table({"policy", "detect", "runs", "crashed",
                        "restarted", "gap-mean", "gap-p95", "gap-max",
                        "downtime", "frozen"});
    for (const auto &p : points) {
        const bool gaps = !p.gapWidths.empty();
        table.addRow(
            {recoveryPolicyName(p.policy),
             std::to_string(p.detectWindow), std::to_string(p.runs),
             std::to_string(p.crashedRuns),
             std::to_string(p.restartedRuns),
             gaps ? TablePrinter::fmt(p.gapWidths.mean(), 0) : "-",
             gaps ? TablePrinter::fmt(p.gapWidths.quantile(0.95), 0)
                  : "-",
             gaps ? TablePrinter::fmt(p.gapWidths.max(), 0) : "-",
             std::to_string(p.downtimeCycles),
             std::to_string(p.frozenCycles)});
    }
    table.print();
}

void
printReplayTable(const std::vector<ReplayPoint> &points)
{
    TablePrinter table({"compact-every", "appends", "compactions",
                        "replayed-records", "replayed-credits",
                        "snapshot-bytes"});
    for (const auto &p : points)
        table.addRow({p.compactEvery == 0
                          ? std::string("never")
                          : std::to_string(p.compactEvery),
                      std::to_string(p.journalAppends),
                      std::to_string(p.compactions),
                      std::to_string(p.replayedRecords),
                      std::to_string(p.replayedTransitions),
                      std::to_string(p.snapshotBytes)});
    table.print();
}

void
writeJson(const std::vector<GapPoint> &gaps,
          const std::vector<ReplayPoint> &replays,
          const AttackResult &attack)
{
    // Exported through the shared MetricRegistry/writeBenchJson path
    // (flat dotted names, sorted output) instead of a hand-rolled
    // document, so every BENCH_*.json has the same machine-readable
    // shape.
    telemetry::MetricRegistry registry;
    for (const auto &p : gaps) {
        const std::string prefix = std::string("gap_sweep.") +
            recoveryPolicyName(p.policy) + ".w" +
            std::to_string(p.detectWindow);
        const auto c = [&](const char *name, uint64_t value) {
            registry.counter(prefix + "." + name).set(value);
        };
        c("runs", p.runs);
        c("crashed_runs", p.crashedRuns);
        c("restarted_runs", p.restartedRuns);
        c("gap_reports", p.gapWidths.count());
        c("downtime_cycles", p.downtimeCycles);
        c("frozen_cycles", p.frozenCycles);
        c("benign_kills", p.totalKills);
        registry.gauge(prefix + ".gap_mean_cycles")
            .set(p.gapWidths.empty() ? 0.0 : p.gapWidths.mean());
        registry.gauge(prefix + ".gap_p95_cycles")
            .set(p.gapWidths.empty() ? 0.0
                                     : p.gapWidths.quantile(0.95));
        registry.gauge(prefix + ".gap_max_cycles")
            .set(p.gapWidths.empty() ? 0.0 : p.gapWidths.max());
    }
    for (const auto &p : replays) {
        const std::string prefix = "replay_sweep.every" +
            std::to_string(p.compactEvery);
        const auto c = [&](const char *name, uint64_t value) {
            registry.counter(prefix + "." + name).set(value);
        };
        c("journal_appends", p.journalAppends);
        c("compactions", p.compactions);
        c("replayed_records", p.replayedRecords);
        c("replayed_credit_transitions", p.replayedTransitions);
        c("snapshot_bytes", p.snapshotBytes);
    }
    registry.counter("attack_survival.baseline_detected")
        .set(attack.baselineDetected ? 1 : 0);
    registry.counter("attack_survival.crashed_runs")
        .set(attack.crashedRuns);
    registry.counter("attack_survival.detected_runs")
        .set(attack.detectedRuns);
    registry.counter("acceptance_failures").set(failures);
    telemetry::writeBenchJson("BENCH_recovery.json", "recovery",
                              smoke, registry);
    std::printf("wrote BENCH_recovery.json\n");
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;

    const auto app = workloads::buildServerApp(fleetSpec(base_cr3));
    const auto spec = fleetSpec(base_cr3);
    FlowGuardConfig config;
    config.topaRegions = {4096, 4096};
    FlowGuard guard = trainedGuard(app, spec, 4, config);

    const std::vector<uint64_t> windows =
        smoke ? std::vector<uint64_t>{400, 1'600}
              : std::vector<uint64_t>{200, 400, 800, 1'600};
    const size_t crash_points = smoke ? 2 : 6;
    const std::vector<RecoveryPolicy> policies = {
        RecoveryPolicy::FailClosed, RecoveryPolicy::ResyncAndAudit,
        RecoveryPolicy::ColdRestart};

    std::printf("== gap length vs detection window ==\n");
    std::vector<GapPoint> gaps;
    for (RecoveryPolicy policy : policies)
        for (uint64_t window : windows)
            gaps.push_back(
                gapSweepPoint(guard, policy, window, crash_points));
    printGapTable(gaps);

    // Shape checks: every restarted run reports its gap; FailClosed
    // pays the restart latency as modeled freeze, and its unchecked
    // window (detection only) stays narrower than the run-through
    // policies' (detection + restart) at the same detection window.
    for (const auto &p : gaps) {
        if (p.restartedRuns == 0)
            continue;
        require(!p.gapWidths.empty(),
                "restarted runs with no gap reports");
        if (p.policy == RecoveryPolicy::FailClosed)
            require(p.frozenCycles > 0,
                    "FailClosed restart with no modeled freeze");
    }
    for (RecoveryPolicy policy : policies) {
        const GapPoint *narrow = nullptr;
        const GapPoint *wide = nullptr;
        for (const auto &p : gaps) {
            if (p.policy != policy || p.gapWidths.empty())
                continue;
            if (!narrow || p.detectWindow < narrow->detectWindow)
                narrow = &p;
            if (!wide || p.detectWindow > wide->detectWindow)
                wide = &p;
        }
        if (narrow && wide && narrow != wide)
            require(narrow->gapWidths.mean() <=
                        wide->gapWidths.mean() * 1.10,
                    "gap width did not grow with detection window");
    }

    std::printf("\n== replay cost vs compaction threshold ==\n");
    const std::vector<size_t> compact_sweep =
        smoke ? std::vector<size_t>{8, 0}
              : std::vector<size_t>{8, 32, 128, 0};
    std::vector<ReplayPoint> replays;
    for (size_t every : compact_sweep)
        replays.push_back(replaySweepPoint(app, every));
    printReplayTable(replays);

    // Never compacting must replay the longest tail, and eager
    // compaction must actually compact.
    const ReplayPoint *never = nullptr;
    const ReplayPoint *eager = nullptr;
    for (const auto &p : replays) {
        if (p.compactEvery == 0)
            never = &p;
        if (p.compactEvery == 8)
            eager = &p;
    }
    if (never && eager) {
        require(never->replayedRecords >= eager->replayedRecords,
                "eager compaction replayed more than never-compact");
        require(eager->compactions > never->compactions,
                "eager compaction never compacted");
    }

    std::printf("\n== attack conviction across warm restarts ==\n");
    const AttackResult attack =
        attackSurvival(guard, app, smoke ? 3 : 8);
    std::printf("baseline detected: %s; crashed runs %zu, detected "
                "%zu\n",
                attack.baselineDetected ? "yes" : "no",
                attack.crashedRuns, attack.detectedRuns);
    require(attack.baselineDetected,
            "baseline run did not detect the planted attack");
    require(attack.crashedRuns > 0, "attack sweep never crashed");

    writeJson(gaps, replays, attack);
    return failures == 0 ? 0 : 1;
}

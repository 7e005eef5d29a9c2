/**
 * @file
 * Shared test harness for crash-recovery tests: a fleet of processes
 * on one cpu::Machine behind one ProtectionService, with a
 * RecoverySupervisor (or a test subclass of it) wired in as both the
 * service's recovery hooks and a kernel code-event sink, and a
 * FaultInjector that can crash, hang, or tear the checker on a
 * scheduled virtual cycle. Also the two fleets the crash suites run:
 * benign servers, and plugin servers with dlopen/dlclose churn.
 */

#ifndef FLOWGUARD_TESTS_RECOVERY_FLEET_HH
#define FLOWGUARD_TESTS_RECOVERY_FLEET_HH

#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "core/flowguard.hh"
#include "cpu/machine.hh"
#include "recovery/supervisor.hh"
#include "runtime/kernel.hh"
#include "runtime/service.hh"
#include "trace/faults.hh"
#include "workloads/apps.hh"

namespace flowguard::test {

using runtime::FlowGuardKernel;

/** (cr3, seq, kind) — one attributable enforcement outcome. */
using Outcome = std::tuple<uint64_t, uint64_t, uint8_t>;

/** The benign fleet's server (it carries an implanted vulnerability,
 *  for the suites that attack it). */
inline workloads::ServerSpec
benignFleetSpec(uint64_t cr3)
{
    workloads::ServerSpec spec;
    spec.name = "svc";
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

/** The module-churn fleet's plugin server: requests dlopen and
 *  dlclose its plugins. */
inline workloads::PluginServerSpec
churnFleetSpec(uint64_t cr3)
{
    workloads::PluginServerSpec spec;
    spec.numPlugins = 2;
    spec.handlersPerPlugin = 2;
    spec.workPerCall = 8;
    spec.numFillerFuncs = 12;
    spec.implantVuln = true;
    spec.seed = 9;
    spec.cr3 = cr3;
    return spec;
}

/** A guard over 4 KiB ToPA regions for a benign-fleet server,
 *  trained on `streams` seeded benign streams (none: every first-seen
 *  path goes slow and earns runtime credit), path-sensitive on
 *  request. */
inline std::unique_ptr<FlowGuard>
benignFleetGuard(const workloads::SyntheticApp &app, uint64_t streams,
                 bool path_sensitive = false)
{
    FlowGuardConfig config;
    config.topaRegions = {4096, 4096};
    config.pathSensitive = path_sensitive;
    auto guard = std::make_unique<FlowGuard>(app.program, config);
    guard->analyze();
    std::vector<fuzz::Input> corpus;
    for (uint64_t seed = 1; seed <= streams; ++seed)
        corpus.push_back(workloads::makeBenignStream(12, seed, 4, 2));
    if (!corpus.empty())
        guard->trainWithCorpus(corpus);
    return guard;
}

/** The same for a module-churn plugin server (`cr3` is its spec's). */
inline std::unique_ptr<FlowGuard>
churnFleetGuard(const workloads::SyntheticApp &app, uint64_t cr3,
                uint64_t streams, bool path_sensitive = false)
{
    FlowGuardConfig config;
    config.topaRegions = {4096, 4096};
    config.pathSensitive = path_sensitive;
    config.dynamicModules = app.dynamicModules;
    auto guard = std::make_unique<FlowGuard>(app.program, config);
    guard->analyze();
    std::vector<fuzz::Input> corpus;
    for (uint64_t seed = 1; seed <= streams; ++seed)
        corpus.push_back(
            workloads::makePluginStream(10, seed, churnFleetSpec(cr3)));
    if (!corpus.empty())
        guard->trainWithCorpus(corpus);
    return guard;
}

template <typename Supervisor>
struct BasicRecoveryFleet
{
    std::vector<workloads::SyntheticApp> apps;
    std::vector<std::unique_ptr<FlowGuard::ProcessHarness>> procs;
    std::vector<std::unique_ptr<FlowGuardKernel>> kernels;
    cpu::Machine machine;
    runtime::ProtectionService service;
    Supervisor supervisor;
    trace::FaultInjector faults;

    using AppBuilder =
        std::function<workloads::SyntheticApp(size_t index)>;

    BasicRecoveryFleet(FlowGuard &guard, runtime::ServiceConfig sconfig,
                  recovery::RecoveryConfig rconfig,
                  trace::ControlFaultPlan plan, uint64_t fault_seed,
                  const AppBuilder &build_app,
                  const std::vector<std::vector<uint8_t>> &inputs)
        : service(sconfig), supervisor(rconfig), faults(fault_seed)
    {
        faults.setControlPlan(plan);
        service.setMachine(machine);
        service.setFaultInjector(faults);
        supervisor.attach(service);
        supervisor.setFaultInjector(faults);

        const size_t n = inputs.size();
        apps.reserve(n);
        for (size_t i = 0; i < n; ++i)
            apps.push_back(build_app(i));
        for (size_t i = 0; i < n; ++i) {
            procs.push_back(
                guard.makeProcessHarness(apps[i].program));
            kernels.push_back(std::make_unique<FlowGuardKernel>(
                FlowGuardKernel::Config{}));
            kernels[i]->attachService(service);
            kernels[i]->setInput(inputs[i]);
            if (procs[i]->dyn)
                kernels[i]->addCodeEventSink(procs[i]->dyn.get());
            // Module churn must reach the journal: replay must never
            // restore credit onto a range retired during the gap.
            kernels[i]->addCodeEventSink(&supervisor);
            procs[i]->cpu->setSyscallHandler(kernels[i].get());
            service.addProcess(apps[i].program.cr3(),
                               *procs[i]->monitor,
                               *procs[i]->encoder, *procs[i]->topa,
                               *procs[i]->cpu, &procs[i]->cycles);
            // Non-dynamic harnesses check against the guard's shared
            // trained graph; dynamic ones own a private copy and hand
            // the supervisor their module map for replay reconciling.
            supervisor.addProcess(
                apps[i].program.cr3(), *procs[i]->monitor,
                procs[i]->itc ? *procs[i]->itc : guard.itc(),
                *procs[i]->cpu, procs[i]->dyn.get());
            machine.addProcess(*procs[i]->cpu);
        }
        machine.setQuantum(2'000);
    }

    uint64_t cr3(size_t i) const { return apps[i].program.cr3(); }

    void
    run(uint64_t max_insts = 100'000'000)
    {
        service.attachAll();
        machine.run(max_insts);
        service.drain();
    }

    /**
     * Every enforcement outcome: kernel-delivered kills plus the
     * service's control-plane reports. Supervisor reports (gap
     * bounds, catch-up audits) are deliberately excluded — crash
     * equivalence is "same enforcement modulo reported gaps".
     */
    std::set<Outcome>
    enforcementOutcomes() const
    {
        std::set<Outcome> out;
        for (const auto &kernel : kernels)
            for (const auto &report : kernel->violations())
                out.insert({report.cr3, report.seq,
                            static_cast<uint8_t>(report.kind)});
        for (const auto &report : service.reports())
            out.insert({report.cr3, report.seq,
                        static_cast<uint8_t>(report.kind)});
        return out;
    }

    bool
    detected(size_t i, runtime::ViolationReport::Kind kind) const
    {
        for (const auto &report : kernels[i]->violations())
            if (report.kind == kind && report.cr3 == cr3(i))
                return true;
        for (const auto &report : service.reports())
            if (report.kind == kind && report.cr3 == cr3(i))
                return true;
        return false;
    }

    /** The supervisor saw a gap (or catch-up violation) for cr3 i. */
    bool
    gapReported(size_t i) const
    {
        for (const auto &report : supervisor.reports())
            if (report.cr3 == cr3(i) &&
                report.kind ==
                    runtime::ViolationReport::Kind::ProtectionGap)
                return true;
        return false;
    }

    bool
    catchUpViolation(size_t i) const
    {
        for (const auto &report : supervisor.reports())
            if (report.cr3 == cr3(i) &&
                report.kind !=
                    runtime::ViolationReport::Kind::ProtectionGap)
                return true;
        return false;
    }

    /** The no-silent-gap identity, per process and in sum. */
    bool
    ledgerIdentityHolds() const
    {
        for (size_t i = 0; i < procs.size(); ++i)
            if (!supervisor.ledger().identityHolds(
                    cr3(i), procs[i]->cpu->instCount()))
                return false;
        return true;
    }

    uint64_t
    totalKills() const
    {
        uint64_t kills = 0;
        for (const auto &kernel : kernels)
            kills += kernel->kills();
        return kills;
    }
};

using RecoveryFleet = BasicRecoveryFleet<recovery::RecoverySupervisor>;

} // namespace flowguard::test

#endif // FLOWGUARD_TESTS_RECOVERY_FLEET_HH

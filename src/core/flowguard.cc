#include "core/flowguard.hh"

#include <chrono>

#include "analysis/cfg_builder.hh"
#include "cpu/basic_kernel.hh"
#include "fuzz/trainer.hh"
#include "runtime/service.hh"
#include "support/logging.hh"
#include "trace/ipt.hh"

namespace flowguard {

FlowGuard::FlowGuard(const isa::Program &program, FlowGuardConfig config)
    : _program(program), _config(std::move(config))
{}

FlowGuard::~FlowGuard() = default;

void
FlowGuard::analyze()
{
    if (analyzed())
        return;
    const auto start = std::chrono::steady_clock::now();
    _typearmor = std::make_unique<analysis::TypeArmorInfo>(
        analysis::analyzeTypeArmor(_program));
    _ocfg = std::make_unique<analysis::Cfg>(
        analysis::buildCfg(_program, _typearmor.get()));
    _itc = std::make_unique<analysis::ItcCfg>(
        analysis::ItcCfg::build(*_ocfg));
    if (_config.pathSensitive)
        _paths = std::make_unique<analysis::PathIndex>();
    const auto end = std::chrono::steady_clock::now();
    _analyzeSeconds =
        std::chrono::duration<double>(end - start).count();
}

fuzz::RunTarget
FlowGuard::defaultRunner() const
{
    const isa::Program *program = &_program;
    const uint64_t max_insts = _config.fuzzRunMaxInsts;
    return [program, max_insts](const fuzz::Input &input,
                                cpu::TraceSink *sink) {
        cpu::Cpu cpu(*program);
        cpu::BasicKernel kernel;
        kernel.setInput(input);
        cpu.setSyscallHandler(&kernel);
        if (sink)
            cpu.addTraceSink(sink);
        cpu.run(max_insts);   // crashes/limits are fine while fuzzing
    };
}

void
FlowGuard::train(uint64_t budget, std::vector<fuzz::Input> seeds)
{
    analyze();
    if (!_fuzzer)
        _fuzzer = std::make_unique<fuzz::Fuzzer>(defaultRunner());
    for (auto &seed : seeds)
        _fuzzer->addSeed(std::move(seed));
    _fuzzer->run(budget);
    trainWithCorpus(_fuzzer->corpus());
}

void
FlowGuard::trainWithCorpus(const std::vector<fuzz::Input> &corpus)
{
    analyze();
    fuzz::trainItcCfg(*_itc, defaultRunner(), corpus, _paths.get());
}

const analysis::Cfg &
FlowGuard::ocfg() const
{
    fg_assert(_ocfg, "call analyze() first");
    return *_ocfg;
}

analysis::ItcCfg &
FlowGuard::itc()
{
    fg_assert(_itc, "call analyze() first");
    return *_itc;
}

const analysis::ItcCfg &
FlowGuard::itc() const
{
    fg_assert(_itc, "call analyze() first");
    return *_itc;
}

const analysis::TypeArmorInfo &
FlowGuard::typearmor() const
{
    fg_assert(_typearmor, "call analyze() first");
    return *_typearmor;
}

analysis::AiaReport
FlowGuard::aia() const
{
    return analysis::computeAia(ocfg(), itc());
}

analysis::CfgStats
FlowGuard::cfgStats() const
{
    return analysis::computeCfgStats(ocfg(), itc());
}

FlowGuard::RunOutcome
FlowGuard::run(const std::vector<uint8_t> &input, uint64_t max_insts)
{
    analyze();
    RunOutcome outcome;

    // Run-local observability: unless configured off, every run has a
    // hub, so violation reports carry flight-recorder snapshots even
    // when nobody asked for a trace. An external hub (the caller's
    // sink and registry) takes precedence over the local null-sink
    // one; either way the clock is this run's simulated cycle count
    // (application cycles plus modeled checking overhead).
    telemetry::Telemetry local_hub;
    telemetry::Telemetry *hub = nullptr;
    if (!_config.telemetryOff)
        hub = _config.telemetry ? _config.telemetry : &local_hub;

    cpu::Cpu cpu(_program);

    trace::Topa topa(_config.topaRegions);
    topa.setPmiServiceLatency(_config.pmiServiceLatencyBytes);
    trace::IptConfig ipt_config;
    ipt_config.cr3Filter = true;
    ipt_config.cr3Match = _program.cr3();
    ipt_config.psbPeriodBytes = _config.psbPeriodBytes;
    trace::IptEncoder encoder(ipt_config, topa, &outcome.cycles);
    cpu.addTraceSink(&encoder);

    runtime::MonitorConfig monitor_config;
    monitor_config.fastPath = _config.fastPath;
    monitor_config.cacheSlowPathVerdicts =
        _config.cacheSlowPathVerdicts;
    monitor_config.lossPolicy = _config.lossPolicy;
    runtime::Monitor monitor(_program, *_itc, *_ocfg, *_typearmor,
                             monitor_config, &outcome.cycles,
                             _paths.get());

    runtime::FlowGuardKernel::Config kernel_config;
    kernel_config.endpoints = _config.endpoints;
    runtime::FlowGuardKernel kernel(kernel_config);
    kernel.attachProcess(_program.cr3(), monitor, encoder, topa,
                         &outcome.cycles);
    kernel.setInput(input);
    cpu.setSyscallHandler(&kernel);
    runtime::ProtectionService &service = *kernel.service();
    if (_config.pmiChecking)
        service.armPmi(_program.cr3());

    std::unique_ptr<dynamic::DynamicGuard> dyn;
    if (!_config.dynamicModules.empty()) {
        dyn = std::make_unique<dynamic::DynamicGuard>(
            _program, *_itc, _config.jitPolicy);
        dyn->startUnloaded(_config.dynamicModules);
        monitor.attachDynamic(*dyn);
        kernel.addCodeEventSink(dyn.get());
    }

    if (hub) {
        hub->setClock([&cpu, &outcome] {
            return static_cast<uint64_t>(
                static_cast<double>(cpu.instCount()) *
                    cpu::cost::app_cpi +
                outcome.cycles.overheadTotal());
        });
        monitor.setTelemetry(hub, _program.cr3());
        encoder.setTelemetry(hub, _program.cr3());
        kernel.attachTelemetry(hub);
    }

    outcome.stop = cpu.run(max_insts);
    outcome.exitCode = cpu.exitCode();
    outcome.attackDetected = kernel.kills() > 0;
    outcome.violations = kernel.violations();
    runtime::ViolationReport pending;
    if (kernel.kills() == 0 &&
        service.consumePendingKill(_program.cr3(), pending)) {
        // The process stopped before the kernel could deliver the
        // PMI-triggered kill; still a positive detection. A killed
        // process leaves only later evidence in the queue.
        outcome.attackDetected = true;
        pending.reason += " (post-mortem)";
        outcome.violations.push_back(std::move(pending));
    }
    outcome.monitor = monitor.stats();
    outcome.instructions = cpu.instCount();
    outcome.syscalls = kernel.totalSyscalls();
    outcome.output = kernel.output();
    outcome.trace = encoder.stats();
    outcome.overflowEpisodes = topa.overflowEpisodes();
    outcome.droppedTraceBytes = topa.droppedBytes();
    if (dyn)
        outcome.dynamicStats = dyn->stats();
    outcome.verdicts = monitor.verdictLog();
    outcome.auditReports = kernel.auditReports();
    outcome.cycles.app = static_cast<double>(cpu.instCount()) *
                         cpu::cost::app_cpi;
    return outcome;
}

std::unique_ptr<FlowGuard::ProcessHarness>
FlowGuard::makeProcessHarness(const isa::Program &program)
{
    analyze();
    auto harness = std::make_unique<ProcessHarness>();
    harness->cpu = std::make_unique<cpu::Cpu>(program);
    harness->topa = std::make_unique<trace::Topa>(_config.topaRegions);
    harness->topa->setPmiServiceLatency(
        _config.pmiServiceLatencyBytes);

    trace::IptConfig ipt_config;
    ipt_config.cr3Filter = true;
    ipt_config.cr3Match = program.cr3();
    ipt_config.psbPeriodBytes = _config.psbPeriodBytes;
    harness->encoder = std::make_unique<trace::IptEncoder>(
        ipt_config, *harness->topa, &harness->cycles);
    harness->cpu->addTraceSink(harness->encoder.get());

    runtime::MonitorConfig monitor_config;
    monitor_config.fastPath = _config.fastPath;
    monitor_config.cacheSlowPathVerdicts =
        _config.cacheSlowPathVerdicts;
    monitor_config.lossPolicy = _config.lossPolicy;
    monitor_config.autoCommitCache = false;
    // With dynamic tracking on, the harness checks against a private
    // copy of the trained graph: load/unload events flip liveness and
    // runtime credit, and that state is per-process — sharing it
    // would let one process's dlclose convict a peer whose copy of
    // the module is still live.
    analysis::ItcCfg *graph = _itc.get();
    const bool dynamic_on = !_config.dynamicModules.empty();
    if (dynamic_on) {
        harness->itc = std::make_unique<analysis::ItcCfg>(*_itc);
        graph = harness->itc.get();
    }
    harness->monitor = std::make_unique<runtime::Monitor>(
        program, *graph, *_ocfg, *_typearmor, monitor_config,
        &harness->cycles, _paths.get());
    if (dynamic_on) {
        harness->dyn = std::make_unique<dynamic::DynamicGuard>(
            program, *harness->itc, _config.jitPolicy);
        harness->dyn->startUnloaded(_config.dynamicModules);
        harness->monitor->attachDynamic(*harness->dyn);
    }
    // Service harnesses only wire an external hub: the service layer
    // owns the clock (scheduler virtual time), and a run-local hub
    // would die with this function's caller anyway.
    if (_config.telemetry && !_config.telemetryOff) {
        harness->monitor->setTelemetry(_config.telemetry,
                                       program.cr3());
        harness->encoder->setTelemetry(_config.telemetry,
                                       program.cr3());
    }
    return harness;
}

FlowGuard::RunOutcome
FlowGuard::runUnprotected(const std::vector<uint8_t> &input,
                          uint64_t max_insts) const
{
    RunOutcome outcome;
    cpu::Cpu cpu(_program);
    cpu::BasicKernel kernel;
    kernel.setInput(input);
    cpu.setSyscallHandler(&kernel);
    outcome.stop = cpu.run(max_insts);
    outcome.exitCode = cpu.exitCode();
    outcome.instructions = cpu.instCount();
    outcome.syscalls = kernel.totalSyscalls();
    outcome.output = kernel.output();
    outcome.cycles.app = static_cast<double>(cpu.instCount()) *
                         cpu::cost::app_cpi;
    return outcome;
}

} // namespace flowguard

/**
 * @file
 * Trace-loss resilience: what each degradation policy costs.
 *
 * Two sweeps:
 *
 *  1. PMI service latency x LossPolicy on a benign server workload —
 *     how many overflow episodes occur, how much trace is dropped,
 *     what each policy does with the lossy windows (convict / escalate
 *     / wave through) and what the escalations cost in decode+check
 *     overhead. FailClosed trades availability (benign kills) for
 *     zero unverified windows; EscalateSlowPath buys verification
 *     with slow-path cycles; LogAndPass is free and blind.
 *
 *  2. Injected buffer faults vs decoder cost — how much scanning the
 *     skip-to-PSB resync adds over a clean decode of the same buffer.
 */

#include <cstdio>

#include "bench_common.hh"
#include "cpu/basic_kernel.hh"
#include "decode/fast_decoder.hh"
#include "trace/faults.hh"

namespace {

using namespace flowguard;

const char *
policyName(runtime::LossPolicy policy)
{
    switch (policy) {
      case runtime::LossPolicy::FailClosed:
        return "fail-closed";
      case runtime::LossPolicy::EscalateSlowPath:
        return "escalate-slow";
      case runtime::LossPolicy::LogAndPass:
        return "log-and-pass";
    }
    return "?";
}

const char *
stopName(cpu::Cpu::Stop stop)
{
    return stop == cpu::Cpu::Stop::Killed ? "killed" : "halted";
}

void
latencySweep()
{
    std::printf("=== PMI service latency x loss policy (benign load) "
                "===\n\n");

    workloads::ServerSpec spec = workloads::serverSuite(false)[0];
    workloads::SyntheticApp app = workloads::buildServerApp(spec);

    TablePrinter table({"latency B", "policy", "episodes", "dropped B",
                        "loss win", "escalated", "convicted", "stop",
                        "overhead"});
    for (size_t latency : {size_t{0}, size_t{128}, size_t{512},
                           size_t{2048}}) {
        for (auto policy : {runtime::LossPolicy::FailClosed,
                            runtime::LossPolicy::EscalateSlowPath,
                            runtime::LossPolicy::LogAndPass}) {
            FlowGuardConfig config;
            config.pmiChecking = true;
            config.topaRegions = {2048, 2048};
            config.pmiServiceLatencyBytes = latency;
            config.lossPolicy = policy;
            FlowGuard guard =
                bench::trainedGuard(app, spec, 6, config);
            auto result = bench::measureOverhead(
                guard, bench::serverLoad(spec, 10, 7),
                bench::serverLoad(spec, 20, 8));
            const auto &run = result.protectedRun;
            table.addRow(
                {std::to_string(latency), policyName(policy),
                 std::to_string(run.overflowEpisodes),
                 std::to_string(run.droppedTraceBytes),
                 std::to_string(run.monitor.lossWindows),
                 std::to_string(run.monitor.lossEscalations),
                 std::to_string(run.monitor.lossViolations),
                 stopName(run.stop), bench::pct(result.overheadPct)});
        }
    }
    table.print();
    std::printf(
        "\nWith instant service (latency 0) no policy ever fires: a\n"
        "buffer wrap is not loss. Under real latency, fail-closed\n"
        "kills the benign process, escalate-slow pays slow-path\n"
        "cycles to verify the surviving windows, log-and-pass only\n"
        "counts them.\n\n");
}

void
faultDecodeSweep()
{
    std::printf("=== Injected faults vs decoder cost ===\n\n");

    // One clean reference trace, then per-mode corrupted copies.
    workloads::ServerSpec spec = workloads::serverSuite(false)[0];
    workloads::SyntheticApp app = workloads::buildServerApp(spec);
    trace::Topa topa({1 << 16});
    trace::IptEncoder encoder(trace::IptConfig{}, topa);
    cpu::Cpu cpu(app.program);
    cpu::BasicKernel kernel;
    kernel.setInput(bench::serverLoad(spec, 20, 3));
    cpu.setSyscallHandler(&kernel);
    cpu.addTraceSink(&encoder);
    cpu.run(10'000'000);
    encoder.flushTnt();
    const std::vector<uint8_t> clean = topa.snapshot();

    // The ring has wrapped: each decode reads from its oldest PSB.
    decode::TraceCursor cursor;
    cpu::CycleAccount clean_account;
    const auto base = cursor.decode(trace::StreamView{clean}, SIZE_MAX,
                                    &clean_account);

    TablePrinter table({"fault", "resyncs", "skipped B", "steps kept",
                        "decode cost vs clean"});
    table.addRow({"none", std::to_string(base.resyncs),
                  std::to_string(base.bytesSkipped),
                  std::to_string(base.steps.size()), "1.00x"});

    for (auto mode : {trace::FaultMode::CorruptBytes,
                      trace::FaultMode::FlipBits,
                      trace::FaultMode::TruncateTail,
                      trace::FaultMode::DropRegion}) {
        // Average over seeds: single faults land in very different
        // places (inside a payload vs on a PSB) with very different
        // recovery costs.
        uint64_t resyncs = 0, skipped = 0, steps = 0;
        double cost = 0.0;
        const int seeds = 32;
        for (int seed = 0; seed < seeds; ++seed) {
            std::vector<uint8_t> bytes = clean;
            trace::FaultInjector injector(
                static_cast<uint64_t>(seed) + 1);
            trace::FaultSpec fault;
            fault.mode = mode;
            fault.count = 16;
            fault.regionBytes = 2048;
            injector.apply(fault, bytes);
            cpu::CycleAccount account;
            const auto &result = cursor.decode(trace::StreamView{bytes},
                                               SIZE_MAX, &account);
            resyncs += result.resyncs;
            skipped += result.bytesSkipped;
            steps += result.steps.size();
            cost += account.decode;
        }
        table.addRow(
            {trace::faultModeName(mode),
             TablePrinter::fmt(double(resyncs) / seeds, 1),
             TablePrinter::fmt(double(skipped) / seeds, 1),
             TablePrinter::fmt(double(steps) / seeds, 1),
             TablePrinter::fmt(cost / seeds / clean_account.decode, 2) +
                 "x"});
    }
    table.print();
    std::printf(
        "\nResync cost is bounded: decode is linear in bytes scanned,\n"
        "and a corrupted packet costs at most the skip to the next\n"
        "PSB (one psbPeriod) plus the flow steps the gap discards.\n");
}

} // namespace

int
main()
{
    latencySweep();
    faultDecodeSweep();
    return 0;
}

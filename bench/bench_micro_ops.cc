/**
 * @file
 * google-benchmark microbenchmarks for the primitive operations the
 * runtime rides on: IPT packet encode, packet-layer parse, ITC-CFG
 * node/edge binary search, fast-path window checks and full decode.
 * These measure *this implementation's* wall-clock costs, orthogonal
 * to the calibrated cycle model the table/figure benches report.
 */

#include <benchmark/benchmark.h>

#include "analysis/cfg_builder.hh"
#include "analysis/itc_cfg.hh"
#include "decode/fast_decoder.hh"
#include "decode/full_decoder.hh"
#include "runtime/fast_path.hh"
#include "support/random.hh"
#include "trace/ipt.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;

struct Fixture
{
    Fixture()
        : app(workloads::buildServerApp(workloads::serverSuite()[0])),
          cfg(analysis::buildCfg(app.program)),
          itc(analysis::ItcCfg::build(cfg))
    {
        trace::Topa topa({1 << 22});
        trace::IptConfig config;
        trace::IptEncoder encoder(config, topa);
        workloads::runOnce(
            app.program,
            workloads::makeBenignStream(10, 3, 10, 6), &encoder);
        encoder.flushTnt();
        trace_bytes = topa.snapshot();

        decode::TraceCursor cursor;
        const auto &flow =
            cursor.decode(trace::StreamView{trace_bytes}, SIZE_MAX);
        for (const auto &step : flow.steps)
            if (step.kind == decode::StepKind::Tip)
                tips.push_back(step.ip);
    }

    workloads::SyntheticApp app;
    analysis::Cfg cfg;
    analysis::ItcCfg itc;
    std::vector<uint8_t> trace_bytes;
    std::vector<uint64_t> tips;
};

Fixture &
fixture()
{
    static Fixture fx;
    return fx;
}

void
BM_PacketEncodeTip(benchmark::State &state)
{
    std::vector<uint8_t> out;
    out.reserve(1 << 20);
    uint64_t last_ip = 0;
    uint64_t ip = 0x400000;
    for (auto _ : state) {
        if (out.size() > (1 << 20) - 16)
            out.clear();
        trace::appendTipClass(out, trace::opcode::tip, ip, last_ip);
        ip += 0x40;
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_PacketEncodeTip);

void
BM_PacketParse(benchmark::State &state)
{
    const auto &bytes = fixture().trace_bytes;
    for (auto _ : state) {
        trace::PacketParser parser(bytes);
        trace::Packet pkt;
        uint64_t count = 0;
        while (parser.next(pkt))
            ++count;
        benchmark::DoNotOptimize(count);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_PacketParse);

void
BM_ItcEdgeLookup(benchmark::State &state)
{
    const auto &fx = fixture();
    size_t i = 0;
    for (auto _ : state) {
        const uint64_t from = fx.tips[i % (fx.tips.size() - 1)];
        const uint64_t to = fx.tips[i % (fx.tips.size() - 1) + 1];
        benchmark::DoNotOptimize(fx.itc.findEdge(from, to));
        ++i;
    }
}
BENCHMARK(BM_ItcEdgeLookup);

void
BM_FastPathWindow(benchmark::State &state)
{
    const auto &fx = fixture();
    runtime::FastPathChecker checker(fx.itc, fx.app.program,
                                     runtime::FastPathConfig{});
    for (auto _ : state) {
        auto result = checker.check(fx.trace_bytes);
        benchmark::DoNotOptimize(result.verdict);
    }
}
BENCHMARK(BM_FastPathWindow);

void
BM_FullDecode(benchmark::State &state)
{
    const auto &fx = fixture();
    decode::TraceCursor cursor;
    for (auto _ : state) {
        const auto &flow =
            cursor.decode(trace::StreamView{fx.trace_bytes}, SIZE_MAX);
        auto result = decode::decodeInstructionFlow(fx.app.program, flow);
        benchmark::DoNotOptimize(result.instructionsWalked);
    }
    state.SetBytesProcessed(static_cast<int64_t>(
        state.iterations() * fx.trace_bytes.size()));
}
BENCHMARK(BM_FullDecode);

void
BM_CfgBuild(benchmark::State &state)
{
    const auto &fx = fixture();
    for (auto _ : state) {
        auto cfg = analysis::buildCfg(fx.app.program);
        benchmark::DoNotOptimize(cfg.blocks().size());
    }
}
BENCHMARK(BM_CfgBuild);

void
BM_ItcBuild(benchmark::State &state)
{
    const auto &fx = fixture();
    for (auto _ : state) {
        auto itc = analysis::ItcCfg::build(fx.cfg);
        benchmark::DoNotOptimize(itc.numEdges());
    }
}
BENCHMARK(BM_ItcBuild);

} // namespace

BENCHMARK_MAIN();

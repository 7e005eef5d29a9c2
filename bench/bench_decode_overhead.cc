/**
 * @file
 * The §2 motivation experiment: trace SPEC-like benchmarks with IPT
 * and pause-and-decode the buffers with the instruction-flow-layer
 * reference decoder. The paper measures a ~230x geometric-mean
 * slowdown with 8 of 12 benchmarks above 500x — the number that makes
 * naive online decoding a non-starter and motivates the ITC-CFG.
 */

#include "bench_common.hh"

#include "decode/full_decoder.hh"
#include "trace/ipt.hh"

int
main()
{
    using namespace flowguard;
    using namespace flowguard::bench;

    std::printf("=== §2: full (instruction-flow) decode overhead "
                "===\n\n");

    TablePrinter table({"benchmark", "insts", "trace bytes",
                        "insts walked", "decode overhead"});
    Accumulator geo;
    size_t above_500 = 0;

    for (const auto &spec : workloads::specSuite()) {
        auto app = workloads::buildSpecKernel(spec);

        cpu::CycleAccount account;
        trace::Topa topa({1 << 22});     // no wrap: decode everything
        trace::IptConfig config;
        trace::IptEncoder ipt(config, topa, &account);
        auto run = workloads::runOnce(app.program, {}, &ipt);
        ipt.flushTnt();
        account.app = static_cast<double>(run.instructions) *
                      cpu::cost::app_cpi;

        // Only the walk is charged: the packet layer is not what the
        // §2 measurement prices.
        auto bytes = topa.snapshot();
        decode::TraceCursor cursor;
        auto decoded = decode::decodeInstructionFlow(
            app.program, cursor.decode(trace::StreamView{bytes}, SIZE_MAX),
            &account);
        const double overhead = account.decode / account.app;
        geo.add(overhead);
        if (overhead > 500.0)
            ++above_500;

        table.addRow({
            spec.name,
            std::to_string(run.instructions),
            std::to_string(bytes.size()),
            std::to_string(decoded.instructionsWalked),
            TablePrinter::fmt(overhead, 0) + "x",
        });
    }
    table.print();
    std::printf("\ngeomean decode overhead: %.0fx (paper: ~230x); "
                "%zu/12 above 500x (paper: 8/12)\n",
                geo.geomean(), above_500);
    return 0;
}

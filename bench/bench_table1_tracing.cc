/**
 * @file
 * Table 1: comparison of the hardware control-flow tracing mechanisms
 * (BTS / LBR / IPT) on the SPEC-like suite — tracing overhead
 * (geomean, modeled), decoding needs, and filtering capabilities.
 * Paper: BTS ~50x, LBR <1%, IPT ~3% tracing; IPT decode high.
 */

#include "bench_common.hh"

#include "trace/bts.hh"
#include "trace/ipt.hh"
#include "trace/lbr.hh"

int
main()
{
    using namespace flowguard;
    using namespace flowguard::bench;

    std::printf("=== Table 1: hardware tracing mechanism comparison "
                "===\n\n");

    Accumulator bts_over, lbr_over, ipt_over;
    Accumulator branch_density;

    for (const auto &spec : workloads::specSuite()) {
        auto app = workloads::buildSpecKernel(spec);

        // BTS
        {
            cpu::CycleAccount account;
            trace::Bts bts(&account);
            auto run = workloads::runOnce(app.program, {}, &bts);
            account.app = static_cast<double>(run.instructions) *
                          cpu::cost::app_cpi;
            bts_over.add(1.0 + account.overheadRatio());
        }
        // LBR
        {
            cpu::CycleAccount account;
            trace::Lbr lbr(trace::LbrConfig{}, &account);
            auto run = workloads::runOnce(app.program, {}, &lbr);
            account.app = static_cast<double>(run.instructions) *
                          cpu::cost::app_cpi;
            lbr_over.add(1.0 + account.overheadRatio());
        }
        // IPT
        {
            cpu::CycleAccount account;
            trace::Topa topa({1 << 20});
            trace::IptEncoder ipt(trace::IptConfig{}, topa, &account);
            auto run = workloads::runOnce(app.program, {}, &ipt);
            account.app = static_cast<double>(run.instructions) *
                          cpu::cost::app_cpi;
            ipt_over.add(1.0 + account.overheadRatio());

            cpu::Cpu probe(app.program);
            branch_density.add(
                static_cast<double>(run.instructions));
        }
    }

    TablePrinter table({"mechanism", "precise", "tracing overhead",
                        "decoding overhead", "filtering"});
    table.addRow({"BTS", "full",
                  TablePrinter::fmt(bts_over.geomean(), 1) +
                      "x  (paper ~50x)",
                  "none needed", "none"});
    table.addRow({"LBR", "16/32 entries",
                  pct(100.0 * (lbr_over.geomean() - 1.0)) +
                      "  (paper <1%)",
                  "very low", "CPL, CoFI type"});
    table.addRow({"IPT", "full",
                  pct(100.0 * (ipt_over.geomean() - 1.0)) +
                      "  (paper ~3%)",
                  "high (see bench_decode_overhead)",
                  "CPL, CR3, IP"});
    table.print();
    return 0;
}

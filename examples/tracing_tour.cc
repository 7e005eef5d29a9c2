/**
 * @file
 * A tour of the trace hardware models: run one program under BTS,
 * LBR and IPT simultaneously and compare what each captures and at
 * what (modeled) cost — Table 1 in miniature, plus a look at the raw
 * IPT packet bytes and both decoding layers.
 */

#include <cstdio>

#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "decode/fast_decoder.hh"
#include "decode/full_decoder.hh"
#include "trace/bts.hh"
#include "trace/ipt.hh"
#include "trace/lbr.hh"
#include "workloads/apps.hh"

int
main()
{
    using namespace flowguard;

    std::printf("=== execution tracing tour ===\n\n");

    auto spec = workloads::specSuite()[0];    // perlbench-like
    spec.iterations = 50;
    auto app = workloads::buildSpecKernel(spec);

    cpu::CycleAccount bts_cost, lbr_cost, ipt_cost;
    trace::Bts bts(&bts_cost);
    trace::Lbr lbr(trace::LbrConfig{}, &lbr_cost);
    trace::Topa topa({1 << 20});
    trace::IptEncoder ipt(trace::IptConfig{}, topa, &ipt_cost);

    cpu::Cpu cpu(app.program);
    cpu::BasicKernel kernel;
    cpu.setSyscallHandler(&kernel);
    cpu.addTraceSink(&bts);
    cpu.addTraceSink(&lbr);
    cpu.addTraceSink(&ipt);
    cpu.run(10'000'000);
    ipt.flushTnt();

    const double app_cycles = static_cast<double>(cpu.instCount());
    std::printf("program: %llu instructions, %llu branches\n\n",
                static_cast<unsigned long long>(cpu.instCount()),
                static_cast<unsigned long long>(
                    cpu.branchStats().total()));

    std::printf("BTS: %llu records x 16B = %llu bytes, tracing cost "
                "%.1fx\n",
                static_cast<unsigned long long>(bts.totalRecords()),
                static_cast<unsigned long long>(
                    bts.totalRecords() * 16),
                1.0 + bts_cost.trace / app_cycles);
    std::printf("LBR: %llu branches seen, only last %zu kept, cost "
                "%.3f%%\n",
                static_cast<unsigned long long>(lbr.totalRecorded()),
                lbr.snapshot().size(),
                100.0 * lbr_cost.trace / app_cycles);
    std::printf("IPT: %llu bytes total (%llu TIP, %llu TNT packets "
                "carrying %llu outcomes), cost %.2f%%\n\n",
                static_cast<unsigned long long>(ipt.stats().bytes),
                static_cast<unsigned long long>(ipt.stats().tipPackets),
                static_cast<unsigned long long>(ipt.stats().tntPackets),
                static_cast<unsigned long long>(ipt.stats().tntBits),
                100.0 * ipt_cost.trace / app_cycles);

    auto bytes = topa.snapshot();
    std::printf("first IPT packets on the wire:\n");
    trace::PacketParser parser(bytes);
    trace::Packet pkt;
    int shown = 0;
    while (parser.next(pkt) && shown < 12) {
        if (pkt.kind == trace::PacketKind::Pad)
            continue;
        std::printf("  @%04llu %s\n",
                    static_cast<unsigned long long>(pkt.offset),
                    pkt.toString().c_str());
        ++shown;
    }

    cpu::CycleAccount fast_cost, full_cost;
    auto fast = decode::decodePacketLayer(bytes, &fast_cost);
    auto full = decode::decodeInstructionFlow(app.program, bytes,
                                              &full_cost);
    std::printf("\npacket-layer decode: %llu packets, %llu flow "
                "steps, modeled cost %.2f%% of app\n",
                static_cast<unsigned long long>(fast.packetCount),
                static_cast<unsigned long long>(fast.steps.size()),
                100.0 * fast_cost.decode / app_cycles);
    std::printf("instruction-flow decode: %llu instructions "
                "reconstructed, modeled cost %.0fx the app — the §2 "
                "problem FlowGuard exists to avoid\n",
                static_cast<unsigned long long>(
                    full.instructionsWalked),
                full_cost.decode / app_cycles);
    return 0;
}

/**
 * @file
 * Fault-resilience fuzzing: every FaultInjector mode, across many
 * seeds, is applied to a valid encoder output and both decoders must
 * terminate with a well-formed result — no fg_assert/panic escapes,
 * and the loss accounting stays internally consistent. This is the
 * robustness contract the LossPolicy layer builds on: a corrupted
 * window may be unverifiable, but it must never crash the monitor.
 */

#include <gtest/gtest.h>

#include "cpu/cpu.hh"
#include "decode/fast_decoder.hh"
#include "decode/full_decoder.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"
#include "support/logging.hh"
#include "trace/faults.hh"
#include "trace/ipt.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;
using namespace flowguard::trace;

struct Baseline
{
    Program program;
    std::vector<uint8_t> trace;
};

/** Builds one valid trace: a 200-iteration indirect-call loop with a
 *  conditional in the callee, so the stream mixes PSB, PGE, TNT and
 *  TIP packets. Built once and copied per fuzz iteration. */
const Baseline &
baseline()
{
    static const Baseline instance = [] {
        ModuleBuilder mod("m", ModuleKind::Executable);
        mod.function("main");
        mod.movImm(1, 0);
        mod.label("loop");
        mod.movImmFunc(2, "callee");
        mod.callInd(2);
        mod.aluImm(AluOp::Add, 1, 1);
        mod.cmpImm(1, 200);
        mod.jcc(Cond::Lt, "loop");
        mod.halt();
        mod.function("callee");
        mod.cmpImm(1, 100);
        mod.jcc(Cond::Lt, "skip");
        mod.aluImm(AluOp::Add, 3, 1);
        mod.label("skip");
        mod.ret();
        Baseline built{Loader().addExecutable(mod.build()).link(), {}};

        Topa topa({1 << 16});
        IptEncoder encoder(IptConfig{}, topa);
        cpu::Cpu cpu(built.program);
        cpu.addTraceSink(&encoder);
        if (cpu.run(100'000) != cpu::Cpu::Stop::Halted)
            fg_panic("baseline workload did not halt");
        encoder.flushTnt();
        built.trace = topa.snapshot();
        return built;
    }();
    return instance;
}

/** Decodes `bytes` through both decoders and checks the invariants
 *  that must hold no matter how mangled the input is. Returns false
 *  (after ADD_FAILURE) if anything threw. */
bool
decodeBothWays(const std::vector<uint8_t> &bytes,
               const std::string &what)
{
    try {
        auto fast = decode::decodePacketLayer(bytes);
        EXPECT_LE(fast.bytesSkipped, bytes.size()) << what;
        EXPECT_LE(fast.bytesScanned, bytes.size()) << what;
        if (fast.bytesSkipped > 0) {
            EXPECT_TRUE(fast.malformed) << what;
        }
        if (fast.resyncs > 0) {
            EXPECT_TRUE(fast.malformed) << what;
        }

        auto windowed =
            decode::decodeRecentTips({bytes.data(), bytes.size()}, 30);
        // The windowed decode touches each byte at most twice (the
        // backwards counting pass plus the chronological emit pass).
        EXPECT_LE(windowed.bytesScanned, 2 * bytes.size()) << what;

        const auto &base = baseline();
        auto full = decode::decodeInstructionFlow(base.program, bytes);
        EXPECT_LE(full.bytesSkipped, bytes.size()) << what;
        for (size_t i = 0; i < full.lossBranchIndices.size(); ++i) {
            EXPECT_LE(full.lossBranchIndices[i], full.branches.size())
                << what;
            if (i > 0) {
                EXPECT_LE(full.lossBranchIndices[i - 1],
                          full.lossBranchIndices[i])
                    << what;
            }
        }
        return true;
    } catch (const SimError &err) {
        ADD_FAILURE() << what << ": decoder panicked: " << err.what();
    } catch (const std::exception &err) {
        ADD_FAILURE() << what << ": decoder threw: " << err.what();
    }
    return false;
}

class FaultResilience : public ::testing::TestWithParam<FaultMode>
{};

/** 250 seeds per mode x 4 modes = 1000 corrupted decodes. */
TEST_P(FaultResilience, DecodersSurviveSeededFaults)
{
    FaultSpec spec;
    spec.mode = GetParam();
    spec.count = 8;
    spec.regionBytes = 256;

    const auto &base = baseline();
    ASSERT_GT(base.trace.size(), 512u);

    for (uint64_t seed = 0; seed < 250; ++seed) {
        auto bytes = base.trace;
        FaultInjector injector(seed);
        injector.apply(spec, bytes);
        const std::string what =
            spec.toString() + " seed=" + std::to_string(seed);
        if (!decodeBothWays(bytes, what))
            return;     // one detailed failure beats 250 copies
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, FaultResilience,
                         ::testing::Values(FaultMode::CorruptBytes,
                                           FaultMode::FlipBits,
                                           FaultMode::TruncateTail,
                                           FaultMode::DropRegion),
                         [](const auto &info) {
                             // gtest names allow [A-Za-z0-9_] only.
                             std::string name =
                                 faultModeName(info.param);
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(FaultResilience, CleanBaselineDecodesWithoutLoss)
{
    const auto &base = baseline();
    auto fast = decode::decodePacketLayer(base.trace);
    EXPECT_FALSE(fast.malformed);
    EXPECT_FALSE(fast.lossDetected());
    auto full = decode::decodeInstructionFlow(base.program, base.trace);
    ASSERT_TRUE(full.ok()) << full.error;
    EXPECT_FALSE(full.lossDetected());
    EXPECT_TRUE(full.lossBranchIndices.empty());
}

/** Stacked faults: drop a region, then corrupt what survived. */
TEST(FaultResilience, StackedFaultsStillTerminate)
{
    const auto &base = baseline();
    for (uint64_t seed = 0; seed < 50; ++seed) {
        auto bytes = base.trace;
        FaultInjector injector(seed);
        injector.dropRegion(bytes, 256);
        injector.corruptBytes(bytes, 16);
        injector.truncateTail(bytes);
        if (!decodeBothWays(bytes,
                            "stacked seed=" + std::to_string(seed)))
            return;
    }
}

} // namespace

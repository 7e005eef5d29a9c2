/**
 * @file
 * Tests for the instruction-flow (full) decoder, including the key
 * property: over random programs and inputs, the reconstructed branch
 * sequence equals what the CPU actually retired (from the first sync
 * point on) — the decoder works from packet bytes alone.
 */

#include <gtest/gtest.h>

#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "decode/full_decoder.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"
#include "support/random.hh"
#include "trace/ipt.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::isa;

struct Recorder : cpu::TraceSink
{
    std::vector<cpu::BranchEvent> events;
    void
    onBranch(const cpu::BranchEvent &event) override
    {
        events.push_back(event);
    }
};

/** The walk of a whole-buffer cold start on bytes that stand alone
 *  at their stream's origin; only the walk is charged. */
decode::FullDecodeResult
walkWhole(const Program &program, std::span<const uint8_t> bytes,
          cpu::CycleAccount *account = nullptr)
{
    decode::TraceCursor cursor;
    return decode::decodeInstructionFlow(
        program, cursor.decode(trace::StreamView{bytes}, SIZE_MAX),
        account);
}

TEST(FullDecoder, ReconstructsExactBranchSequence)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImm(1, 0);
    mod.label("loop");
    mod.movImmFunc(2, "callee");
    mod.callInd(2);
    mod.aluImm(AluOp::Add, 1, 1);
    mod.cmpImm(1, 3);
    mod.jcc(Cond::Lt, "loop");
    mod.halt();
    mod.function("callee");
    mod.cmpImm(1, 1);
    mod.jcc(Cond::Eq, "skip");
    mod.aluImm(AluOp::Add, 3, 1);
    mod.label("skip");
    mod.ret();
    Program prog = Loader().addExecutable(mod.build()).link();

    Recorder recorder;
    trace::Topa topa({1 << 16});
    trace::IptEncoder encoder(trace::IptConfig{}, topa);
    cpu::Cpu cpu(prog);
    cpu.addTraceSink(&recorder);
    cpu.addTraceSink(&encoder);
    ASSERT_EQ(cpu.run(10'000), cpu::Cpu::Stop::Halted);
    encoder.flushTnt();

    auto result =
        walkWhole(prog, topa.snapshot());
    ASSERT_TRUE(result.ok()) << result.error;

    // The first event is subsumed by the PGE; everything after must
    // match exactly.
    ASSERT_EQ(result.branches.size() + 1, recorder.events.size());
    for (size_t i = 0; i < result.branches.size(); ++i) {
        const auto &decoded = result.branches[i];
        const auto &actual = recorder.events[i + 1];
        EXPECT_EQ(decoded.kind, actual.kind) << "branch " << i;
        EXPECT_EQ(decoded.source, actual.source) << "branch " << i;
        if (actual.kind != cpu::BranchKind::SyscallEntry) {
            EXPECT_EQ(decoded.target, actual.target)
                << "branch " << i;
        }
    }
}

TEST(FullDecoder, NoSyncOnEmptyBuffer)
{
    Program prog = [] {
        ModuleBuilder mod("m", ModuleKind::Executable);
        mod.function("main");
        mod.halt();
        return Loader().addExecutable(mod.build()).link();
    }();
    std::vector<uint8_t> empty;
    auto result = walkWhole(prog, empty);
    EXPECT_EQ(result.status,
              decode::FullDecodeResult::Status::NoSync);
}

TEST(FullDecoder, DesyncOnCorruptedTipTarget)
{
    // A TIP arriving where the walk expects a TNT outcome.
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImmFunc(1, "f");
    mod.jmpInd(1);
    mod.function("f");
    mod.cmpImm(1, 0);
    mod.jcc(Cond::Eq, "out");
    mod.label("out");
    mod.halt();
    Program prog = Loader().addExecutable(mod.build()).link();

    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    trace::appendPsb(bytes);
    // Land in f (valid start)...
    trace::appendTipClass(bytes, trace::opcode::tip_pge,
                          prog.funcAddr("m", "f"), last_ip);
    // ...then a TIP where f's conditional requires a TNT bit.
    trace::appendTipClass(bytes, trace::opcode::tip,
                          prog.funcAddr("m", "f"), last_ip);
    auto result = walkWhole(prog, bytes);
    EXPECT_EQ(result.status,
              decode::FullDecodeResult::Status::Desync);
}

TEST(FullDecoder, ChargesPerInstructionAndBranch)
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImmFunc(1, "f");
    mod.callInd(1);
    mod.halt();
    mod.function("f");
    mod.ret();
    Program prog = Loader().addExecutable(mod.build()).link();

    trace::Topa topa({4096});
    trace::IptEncoder encoder(trace::IptConfig{}, topa);
    cpu::Cpu cpu(prog);
    cpu.addTraceSink(&encoder);
    ASSERT_EQ(cpu.run(100), cpu::Cpu::Stop::Halted);
    encoder.flushTnt();

    cpu::CycleAccount account;
    auto result = walkWhole(prog, topa.snapshot(),
                                                &account);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(account.decode,
              static_cast<double>(result.instructionsWalked) *
                  cpu::cost::sw_full_decode_per_inst);
}

/** Program shared by the loss tests: main indirectly calls f (which
 *  has a conditional), and g is a spare re-anchor target. */
Program
lossProgram()
{
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImmFunc(1, "f");
    mod.callInd(1);
    mod.halt();
    mod.function("f");
    mod.cmpImm(1, 0);
    mod.jcc(Cond::Eq, "out");
    mod.label("out");
    mod.ret();
    mod.function("g");
    mod.halt();
    return Loader().addExecutable(mod.build()).link();
}

TEST(FullDecoder, ReanchorsAfterOvfGap)
{
    Program prog = lossProgram();
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    trace::appendPsb(bytes);
    trace::appendPsbEnd(bytes);
    trace::appendTipClass(bytes, trace::opcode::tip_pge,
                          prog.funcAddr("m", "main"), last_ip);
    trace::appendTipClass(bytes, trace::opcode::tip,
                          prog.funcAddr("m", "f"), last_ip);
    // Overflow: f's TNT bit (and everything else) was dropped; the
    // encoder resynced and context re-entered at g.
    trace::appendOvf(bytes);
    trace::appendPsb(bytes);
    trace::appendPsbEnd(bytes);
    last_ip = 0;
    trace::appendTipClass(bytes, trace::opcode::tip_pge,
                          prog.funcAddr("m", "g"), last_ip);

    auto result = walkWhole(prog, bytes);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.overflows, 1u);
    EXPECT_TRUE(result.lossDetected());
    // The call into f is reconstructed; nothing inside the gap is.
    ASSERT_EQ(result.branches.size(), 1u);
    EXPECT_EQ(result.branches[0].kind, cpu::BranchKind::IndirectCall);
    EXPECT_EQ(result.branches[0].target, prog.funcAddr("m", "f"));
    ASSERT_EQ(result.lossBranchIndices.size(), 1u);
    EXPECT_EQ(result.lossBranchIndices[0], 1u);
}

TEST(FullDecoder, GapAtEndOfTraceStillOk)
{
    Program prog = lossProgram();
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    trace::appendPsb(bytes);
    trace::appendPsbEnd(bytes);
    trace::appendTipClass(bytes, trace::opcode::tip_pge,
                          prog.funcAddr("m", "main"), last_ip);
    trace::appendTipClass(bytes, trace::opcode::tip,
                          prog.funcAddr("m", "f"), last_ip);
    trace::appendOvf(bytes);    // trace ends inside the gap

    auto result = walkWhole(prog, bytes);
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.branches.size(), 1u);
    // index == branches.size(): the gap was never closed.
    ASSERT_EQ(result.lossBranchIndices.size(), 1u);
    EXPECT_EQ(result.lossBranchIndices[0], 1u);
}

TEST(FullDecoder, ResyncsPastGarbageToNextPsb)
{
    Program prog = lossProgram();
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    trace::appendPsb(bytes);
    trace::appendPsbEnd(bytes);
    trace::appendTipClass(bytes, trace::opcode::tip_pge,
                          prog.funcAddr("m", "main"), last_ip);
    trace::appendTipClass(bytes, trace::opcode::tip,
                          prog.funcAddr("m", "f"), last_ip);
    bytes.push_back(0x02);      // undecodable filler
    bytes.push_back(0x99);
    bytes.push_back(0xC7);
    trace::appendPsb(bytes);
    trace::appendPsbEnd(bytes);
    last_ip = 0;
    trace::appendTipClass(bytes, trace::opcode::tip_pge,
                          prog.funcAddr("m", "g"), last_ip);

    auto result = walkWhole(prog, bytes);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.resyncs, 1u);
    EXPECT_EQ(result.bytesSkipped, 3u);
    ASSERT_EQ(result.branches.size(), 1u);
    ASSERT_EQ(result.lossBranchIndices.size(), 1u);
    EXPECT_EQ(result.lossBranchIndices[0], 1u);
}

TEST(FullDecoder, SurvivesRealEncoderOverflow)
{
    // A hot loop against a tiny ToPA with slow PMI service: the
    // encoder overflows repeatedly and resyncs; the decoded branches
    // must be an in-order subsequence of what actually retired.
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
    mod.ret();
    Program prog = Loader().addExecutable(mod.build()).link();

    Recorder recorder;
    trace::Topa topa({1024});
    topa.setPmiServiceLatency(128);
    trace::IptEncoder encoder(trace::IptConfig{}, topa);
    cpu::Cpu cpu(prog);
    cpu.addTraceSink(&recorder);
    cpu.addTraceSink(&encoder);
    ASSERT_EQ(cpu.run(100'000), cpu::Cpu::Stop::Halted);
    encoder.flushTnt();
    ASSERT_GT(topa.overflowEpisodes(), 0u);

    auto result = walkWhole(prog, topa.snapshot());
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_TRUE(result.lossDetected());
    EXPECT_FALSE(result.branches.empty());
    // lossBranchIndices may legitimately be empty: when the ring only
    // retains the final episode, the surviving gap precedes the first
    // PSB anchor and no decoded adjacency is broken.

    // Gap indices are sorted and in range.
    for (size_t i = 0; i < result.lossBranchIndices.size(); ++i) {
        EXPECT_LE(result.lossBranchIndices[i], result.branches.size());
        if (i > 0) {
            EXPECT_LE(result.lossBranchIndices[i - 1],
                      result.lossBranchIndices[i]);
        }
    }

    // Every decoded branch is a real retired branch, in order.
    size_t j = 0;
    for (const auto &branch : result.branches) {
        while (j < recorder.events.size() &&
               (recorder.events[j].kind != branch.kind ||
                recorder.events[j].source != branch.source ||
                recorder.events[j].target != branch.target))
            ++j;
        ASSERT_LT(j, recorder.events.size())
            << "decoded branch is not in the retired sequence";
        ++j;
    }
}

/** Property over random server programs and inputs. */
class FullDecodeProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FullDecodeProperty, DecodedFlowMatchesRetiredFlow)
{
    workloads::ServerSpec spec;
    spec.name = "prop";
    spec.seed = GetParam();
    spec.numHandlers = 4;
    spec.numParserStates = 3;
    spec.numFillerFuncs = 20;
    spec.fillerTableSlots = 6;
    spec.workPerRequest = 40;
    auto app = workloads::buildServerApp(spec);

    Recorder recorder;
    trace::Topa topa({1 << 22});
    trace::IptEncoder encoder(trace::IptConfig{}, topa);
    cpu::Cpu cpu(app.program);
    cpu::BasicKernel kernel;
    kernel.setInput(workloads::makeBenignStream(
        6, GetParam() + 100, spec.numHandlers, spec.numParserStates));
    cpu.setSyscallHandler(&kernel);
    cpu.addTraceSink(&recorder);
    cpu.addTraceSink(&encoder);
    ASSERT_EQ(cpu.run(5'000'000), cpu::Cpu::Stop::Halted);
    encoder.flushTnt();

    auto result =
        walkWhole(app.program, topa.snapshot());
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.branches.size() + 1, recorder.events.size());
    for (size_t i = 0; i < result.branches.size(); ++i) {
        ASSERT_EQ(result.branches[i].source,
                  recorder.events[i + 1].source)
            << "diverged at branch " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullDecodeProperty,
                         ::testing::Values(3, 17, 23, 51, 77));

} // namespace

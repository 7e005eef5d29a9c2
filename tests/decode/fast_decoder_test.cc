/**
 * @file
 * Unit tests for the packet-layer (fast) decoder: flow-step
 * extraction, TNT attribution, windowed decoding from PSB sync
 * points, and TIP-transition folding — plus the ground-truth
 * property: over random programs and PSB periods, the TIP targets
 * the decoder recovers are exactly the indirect-branch targets the
 * CPU retired.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "decode/fast_decoder.hh"
#include "trace/ipt.hh"
#include "trace/ipt_packets.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::decode;
using namespace flowguard::trace;

/** Hand-builds a stream: PSB, TIP(a), TNT(1,0), TIP(b), FUP(c),
 *  PGD, PGE(d), TNT(1), TIP(e). */
std::vector<uint8_t>
sampleStream()
{
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    appendPsb(bytes);
    appendPsbEnd(bytes);
    appendTipClass(bytes, opcode::tip, 0x400100, last_ip);
    appendTnt(bytes, 0b01, 2);
    appendTipClass(bytes, opcode::tip, 0x400200, last_ip);
    appendTipClass(bytes, opcode::fup, 0x400208, last_ip);
    appendTipClass(bytes, opcode::tip_pgd, 0, last_ip, true);
    appendTipClass(bytes, opcode::tip_pge, 0x40020a, last_ip);
    appendTnt(bytes, 0b1, 1);
    appendTipClass(bytes, opcode::tip, 0x400300, last_ip);
    return bytes;
}

TEST(FastDecoder, ExtractsFlowStepsInOrder)
{
    auto result = decodePacketLayer(sampleStream());
    EXPECT_FALSE(result.malformed);
    EXPECT_EQ(result.psbCount, 1u);
    ASSERT_EQ(result.steps.size(), 6u);
    EXPECT_EQ(result.steps[0].kind, StepKind::Tip);
    EXPECT_EQ(result.steps[0].ip, 0x400100u);
    EXPECT_TRUE(result.tntBefore(result.steps[0]).empty());
    EXPECT_EQ(result.steps[1].kind, StepKind::Tip);
    EXPECT_EQ(result.steps[1].ip, 0x400200u);
    ASSERT_EQ(result.tntBefore(result.steps[1]).size(), 2u);
    EXPECT_EQ(result.tntBefore(result.steps[1])[0], 1);   // oldest first
    EXPECT_EQ(result.tntBefore(result.steps[1])[1], 0);
    EXPECT_EQ(result.steps[2].kind, StepKind::Fup);
    EXPECT_EQ(result.steps[3].kind, StepKind::Pgd);
    EXPECT_TRUE(result.steps[3].ipSuppressed);
    EXPECT_EQ(result.steps[4].kind, StepKind::Pge);
    EXPECT_EQ(result.steps[5].kind, StepKind::Tip);
    ASSERT_EQ(result.tntBefore(result.steps[5]).size(), 1u);
}

TEST(FastDecoder, ChargesDecodeCycles)
{
    cpu::CycleAccount account;
    auto bytes = sampleStream();
    decodePacketLayer(bytes, &account);
    EXPECT_DOUBLE_EQ(account.decode,
                     static_cast<double>(bytes.size()) *
                         cpu::cost::sw_packet_decode_per_byte);
}

TEST(FastDecoder, TrailingTntSurvives)
{
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    appendTipClass(bytes, opcode::tip, 0x400000, last_ip);
    appendTnt(bytes, 0b11, 2);
    auto result = decodePacketLayer(bytes);
    ASSERT_EQ(result.trailingTnt().size(), 2u);
}

TEST(FastDecoder, TransitionsSkipContextMarkers)
{
    auto transitions =
        extractTipTransitions(decodePacketLayer(sampleStream()));
    // TIPs: 0x400100, 0x400200, 0x400300; PGE/PGD/FUP transparent.
    ASSERT_EQ(transitions.size(), 3u);
    EXPECT_EQ(transitions[0].from, 0u);
    EXPECT_EQ(transitions[0].to, 0x400100u);
    EXPECT_EQ(transitions[1].from, 0x400100u);
    EXPECT_EQ(transitions[1].to, 0x400200u);
    EXPECT_EQ(transitions[2].from, 0x400200u);
    EXPECT_EQ(transitions[2].to, 0x400300u);
    // TNT accumulates across the FUP/PGD/PGE block.
    ASSERT_EQ(transitions[2].tnt.size(), 1u);
    EXPECT_EQ(transitions[2].tnt[0], 1);
}

TEST(FastDecoder, RecentTipsPicksLatestSufficientSync)
{
    // Three PSB segments with 2 TIPs each.
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    std::vector<uint64_t> psb_offsets;
    uint64_t ip = 0x400000;
    for (int seg = 0; seg < 3; ++seg) {
        psb_offsets.push_back(bytes.size());
        appendPsb(bytes);
        last_ip = 0;
        for (int t = 0; t < 2; ++t) {
            appendTipClass(bytes, opcode::tip, ip, last_ip);
            ip += 0x10;
        }
    }

    // Two TIPs wanted: the last segment suffices.
    auto last = decodeRecentTips({bytes.data(), bytes.size()}, 2);
    EXPECT_EQ(last.startOffset, psb_offsets[2]);
    EXPECT_EQ(last.steps.size(), 2u);

    // Four TIPs wanted: must reach back one more segment.
    auto more = decodeRecentTips({bytes.data(), bytes.size()}, 4);
    EXPECT_EQ(more.startOffset, psb_offsets[1]);
    EXPECT_EQ(more.steps.size(), 4u);

    // More than available: everything from the first PSB.
    auto all = decodeRecentTips({bytes.data(), bytes.size()}, 100);
    EXPECT_EQ(all.startOffset, psb_offsets[0]);
    EXPECT_EQ(all.steps.size(), 6u);
}

TEST(FastDecoder, RecentTipsWithoutPsbDecodesWholeBuffer)
{
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    appendTipClass(bytes, opcode::tip, 0x400000, last_ip);
    auto result = decodeRecentTips({bytes.data(), bytes.size()}, 5);
    EXPECT_EQ(result.steps.size(), 1u);
}

TEST(FastDecoder, MalformedStreamFlagged)
{
    std::vector<uint8_t> bytes{0x02, 0x99};
    auto result = decodePacketLayer(bytes);
    EXPECT_TRUE(result.malformed);
}

TEST(FastDecoder, OvfBreaksTipAdjacency)
{
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    appendPsb(bytes);
    appendPsbEnd(bytes);
    appendTipClass(bytes, opcode::tip, 0x400100, last_ip);
    // The hardware dropped packets here; the encoder resynced.
    appendOvf(bytes);
    appendPsb(bytes);
    appendPsbEnd(bytes);
    last_ip = 0;
    appendTipClass(bytes, opcode::tip, 0x400200, last_ip);
    appendTipClass(bytes, opcode::tip, 0x400300, last_ip);

    auto result = decodePacketLayer(bytes);
    EXPECT_FALSE(result.malformed);
    EXPECT_EQ(result.overflows, 1u);
    EXPECT_EQ(result.resyncs, 0u);
    EXPECT_TRUE(result.lossDetected());
    ASSERT_EQ(result.steps.size(), 3u);
    EXPECT_FALSE(result.steps[0].lossBefore);
    EXPECT_TRUE(result.steps[1].lossBefore);
    EXPECT_FALSE(result.steps[2].lossBefore);

    // No edge is fabricated across the gap: the post-loss TIP opens
    // a fresh window.
    auto transitions = extractTipTransitions(result);
    ASSERT_EQ(transitions.size(), 3u);
    EXPECT_EQ(transitions[1].from, 0u);
    EXPECT_EQ(transitions[1].to, 0x400200u);
    EXPECT_EQ(transitions[2].from, 0x400200u);
}

TEST(FastDecoder, PendingTntDroppedAtLoss)
{
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    appendTipClass(bytes, opcode::tip, 0x400100, last_ip);
    appendTnt(bytes, 0b101, 3);
    appendOvf(bytes);
    appendPsb(bytes);
    appendPsbEnd(bytes);
    last_ip = 0;
    appendTipClass(bytes, opcode::tip, 0x400200, last_ip);
    auto result = decodePacketLayer(bytes);
    ASSERT_EQ(result.steps.size(), 2u);
    // Outcomes buffered before the gap no longer pair with anything.
    EXPECT_TRUE(result.tntBefore(result.steps[1]).empty());
}

TEST(FastDecoder, BadBytesResyncToNextPsb)
{
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    appendTipClass(bytes, opcode::tip, 0x400100, last_ip);
    const size_t garbage_at = bytes.size();
    bytes.push_back(0x02);      // 0x02 + invalid second byte
    bytes.push_back(0x99);
    bytes.push_back(0x47);      // undecodable filler
    const size_t psb_at = bytes.size();
    appendPsb(bytes);
    appendPsbEnd(bytes);
    last_ip = 0;
    appendTipClass(bytes, opcode::tip, 0x400200, last_ip);

    auto result = decodePacketLayer(bytes);
    EXPECT_TRUE(result.malformed);
    EXPECT_EQ(result.resyncs, 1u);
    EXPECT_EQ(result.bytesSkipped, psb_at - garbage_at);
    ASSERT_EQ(result.steps.size(), 2u);
    EXPECT_EQ(result.steps[1].ip, 0x400200u);
    EXPECT_TRUE(result.steps[1].lossBefore);
    // The whole buffer was still scanned; decode terminated cleanly.
    EXPECT_EQ(result.bytesScanned, bytes.size());
}

TEST(FastDecoder, BadTailWithoutPsbTerminates)
{
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    appendTipClass(bytes, opcode::tip, 0x400100, last_ip);
    const size_t garbage_at = bytes.size();
    bytes.push_back(0x02);
    bytes.push_back(0x99);
    bytes.push_back(0x03);
    auto result = decodePacketLayer(bytes);
    EXPECT_TRUE(result.malformed);
    EXPECT_EQ(result.resyncs, 0u);
    EXPECT_EQ(result.bytesSkipped, bytes.size() - garbage_at);
    ASSERT_EQ(result.steps.size(), 1u);
}

TEST(FastDecoder, TruncatedTailIsCleanEofNotLoss)
{
    // A snapshot that races the write cursor tears the last packet;
    // the surviving prefix is fully verified, so this is not loss.
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    appendPsb(bytes);
    appendPsbEnd(bytes);
    appendTipClass(bytes, opcode::tip, 0x400100, last_ip);
    appendTipClass(bytes, opcode::tip, 0xAABB0000CCDD1122ULL, last_ip);
    bytes.resize(bytes.size() - 4);

    auto result = decodePacketLayer(bytes);
    EXPECT_FALSE(result.malformed);
    EXPECT_FALSE(result.lossDetected());
    EXPECT_EQ(result.bytesSkipped, 0u);
    ASSERT_EQ(result.steps.size(), 1u);
    EXPECT_EQ(result.steps[0].ip, 0x400100u);
}

TEST(FastDecoder, SuppressedTipsAreNotTransitions)
{
    std::vector<uint8_t> bytes;
    uint64_t last_ip = 0;
    appendTipClass(bytes, opcode::tip, 0x400100, last_ip);
    appendTipClass(bytes, opcode::tip, 0, last_ip, /*suppress=*/true);
    appendTipClass(bytes, opcode::tip, 0x400200, last_ip);
    auto transitions =
        extractTipTransitions(decodePacketLayer(bytes));
    ASSERT_EQ(transitions.size(), 2u);
    EXPECT_EQ(transitions[1].from, 0x400100u);
    EXPECT_EQ(transitions[1].to, 0x400200u);
}

// --- ground truth: decoded TIPs vs the CPU's retired branches -------------

struct Recorder : cpu::TraceSink
{
    std::vector<cpu::BranchEvent> events;
    void
    onBranch(const cpu::BranchEvent &event) override
    {
        events.push_back(event);
    }
};

/**
 * The TIP targets Table 3 says the encoder emits for `events`: one per
 * indirect jump, indirect call and near return while tracing is on.
 * The first event after entering the traced context (trace start, the
 * return from a syscall) is a TIP.PGE instead, not a TIP.
 */
std::vector<uint64_t>
retiredTipTargets(const std::vector<cpu::BranchEvent> &events)
{
    std::vector<uint64_t> targets;
    bool context_on = false;
    for (const auto &event : events) {
        if (!context_on) {
            context_on = event.kind != cpu::BranchKind::SyscallEntry;
            continue;
        }
        switch (event.kind) {
          case cpu::BranchKind::IndirectJump:
          case cpu::BranchKind::IndirectCall:
          case cpu::BranchKind::Return:
            targets.push_back(event.target);
            break;
          case cpu::BranchKind::SyscallEntry:
            context_on = false;
            break;
          default:
            break;
        }
    }
    return targets;
}

std::vector<uint64_t>
decodedTipTargets(const FastDecodeResult &result)
{
    std::vector<uint64_t> targets;
    for (const auto &step : result.steps)
        if (step.kind == StepKind::Tip)
            targets.push_back(step.ip);
    return targets;
}

/** True when `tail` is a suffix of `all`. */
bool
isSuffix(const std::vector<uint64_t> &tail,
         const std::vector<uint64_t> &all)
{
    return tail.size() <= all.size() &&
        std::equal(tail.begin(), tail.end(), all.end() - tail.size());
}

class FastDecodeGroundTruth : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FastDecodeGroundTruth, TipTargetsMatchRetiredIndirectBranches)
{
    workloads::ServerSpec spec;
    spec.name = "prop";
    spec.seed = GetParam();
    spec.numHandlers = 4;
    spec.numParserStates = 3;
    spec.numFillerFuncs = 20;
    spec.fillerTableSlots = 6;
    spec.workPerRequest = 40;
    const auto app = workloads::buildServerApp(spec);

    for (uint64_t psb_period : {32, 96, 256}) {
        SCOPED_TRACE("psb period " + std::to_string(psb_period));
        // A ring big enough for the whole run, and one that wraps many
        // times (without loss: the PMI is serviced instantly) but
        // still holds PSBs to sync at.
        for (size_t ring : {size_t{1} << 22, size_t{512}}) {
            SCOPED_TRACE("ring " + std::to_string(ring));
            Recorder recorder;
            trace::Topa topa({ring});
            trace::IptConfig config;
            config.psbPeriodBytes = psb_period;
            trace::IptEncoder encoder(config, topa);
            cpu::Cpu cpu(app.program);
            cpu::BasicKernel kernel;
            kernel.setInput(workloads::makeBenignStream(
                16, GetParam() + 100, spec.numHandlers,
                spec.numParserStates));
            cpu.setSyscallHandler(&kernel);
            cpu.addTraceSink(&recorder);
            cpu.addTraceSink(&encoder);
            ASSERT_EQ(cpu.run(5'000'000), cpu::Cpu::Stop::Halted);
            encoder.flushTnt();
            const bool wraps = ring < (size_t{1} << 22);
            ASSERT_EQ(topa.wrapped(), wraps);

            const auto retired = retiredTipTargets(recorder.events);
            const auto packets = topa.snapshot();
            // Everything from the oldest PSB in the ring: the whole
            // run when nothing wrapped, otherwise its newest part.
            const auto synced = decodeRecentTips(packets, SIZE_MAX);
            EXPECT_FALSE(synced.lossDetected());
            const auto decoded = decodedTipTargets(synced);
            if (!wraps) {
                EXPECT_EQ(decoded, retired);
                EXPECT_EQ(decodedTipTargets(decodePacketLayer(packets)),
                          retired);
            } else {
                ASSERT_FALSE(decoded.empty());
                EXPECT_TRUE(isSuffix(decoded, retired));
            }

            // The hot path decodes only the newest TIPs it needs.
            for (size_t min_tips : {1, 30, 400}) {
                const auto recent = decodedTipTargets(
                    decodeRecentTips(packets, min_tips));
                EXPECT_GE(recent.size(),
                          std::min(min_tips, decoded.size()))
                    << "min_tips " << min_tips;
                EXPECT_TRUE(isSuffix(recent, decoded))
                    << "min_tips " << min_tips;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastDecodeGroundTruth,
                         ::testing::Values(3, 17, 23, 51, 77));

} // namespace

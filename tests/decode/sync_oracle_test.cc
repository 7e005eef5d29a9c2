/**
 * @file
 * Differential oracle for the tail-anchored PSB search.
 *
 * `ref::decodeRecentTips` below is the forward-scan decoder the fast
 * path used before: find every PSB in the buffer with
 * trace::findPsbOffsets, count TIPs segment by segment from the last
 * one backwards by decoding them whole, then decode the suffix from
 * the chosen sync point. It is kept here, test-only, as the
 * specification: the backward search must pick the same anchor and
 * produce the same steps, outcomes, loss counters and bytesScanned
 * (so the same modeled decode charge) on every input.
 *
 * The same suite checks that Topa::view(), the in-place window the
 * synchronous checks read, always equals snapshot(), which is
 * assembled from the ring's primary half without the mirror.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "decode/fast_decoder.hh"
#include "support/random.hh"
#include "trace/faults.hh"
#include "trace/ipt.hh"
#include "trace/ipt_packets.hh"
#include "workloads/apps.hh"
#include "storm_ring.hh"

namespace {

using namespace flowguard;
using namespace flowguard::decode;
using test::RingSampler;
using test::stormSpec;
using trace::Packet;
using trace::PacketKind;
using trace::PacketParser;

// --- the reference: the forward-scan decoder, verbatim in behaviour ----

namespace ref {

struct Step
{
    StepKind kind = StepKind::Tip;
    bool ipSuppressed = false;
    uint64_t ip = 0;
    std::vector<uint8_t> tntBefore;
    bool lossBefore = false;
};

struct Result
{
    std::vector<Step> steps;
    std::vector<uint8_t> trailingTnt;
    uint64_t bytesScanned = 0;
    uint64_t packetCount = 0;
    bool malformed = false;
    uint64_t psbCount = 0;
    uint64_t startOffset = 0;
    uint64_t overflows = 0;
    uint64_t resyncs = 0;
    uint64_t bytesSkipped = 0;
};

Result
decodeFrom(const uint8_t *data, size_t size, size_t start,
           size_t end = SIZE_MAX)
{
    Result result;
    const size_t limit = std::min(size, end);
    PacketParser parser(data, limit);
    parser.seek(start);

    std::vector<uint8_t> pending_tnt;
    bool loss_pending = false;
    Packet pkt;
    while (true) {
        if (!parser.next(pkt)) {
            if (!parser.bad())
                break;
            result.malformed = true;
            const size_t bad_at = static_cast<size_t>(parser.offset());
            const size_t psb =
                trace::findNextPsb(data, limit, bad_at + 1);
            if (psb == SIZE_MAX) {
                result.bytesSkipped += limit - bad_at;
                parser.seek(limit);
                break;
            }
            result.bytesSkipped += psb - bad_at;
            ++result.resyncs;
            parser.seek(psb);
            pending_tnt.clear();
            loss_pending = true;
            continue;
        }
        ++result.packetCount;
        switch (pkt.kind) {
          case PacketKind::Pad:
          case PacketKind::PsbEnd:
            break;
          case PacketKind::Psb:
            ++result.psbCount;
            break;
          case PacketKind::Ovf:
            ++result.overflows;
            pending_tnt.clear();
            loss_pending = true;
            break;
          case PacketKind::Tnt:
            for (int i = 0; i < pkt.tntCount; ++i)
                pending_tnt.push_back((pkt.tntBits >> i) & 1);
            break;
          case PacketKind::Tip:
          case PacketKind::TipPge:
          case PacketKind::TipPgd:
          case PacketKind::Fup: {
            Step step;
            step.kind = pkt.kind == PacketKind::Tip ? StepKind::Tip
                : pkt.kind == PacketKind::TipPge ? StepKind::Pge
                : pkt.kind == PacketKind::TipPgd ? StepKind::Pgd
                : StepKind::Fup;
            step.ipSuppressed = pkt.ipSuppressed;
            step.ip = pkt.ip;
            step.tntBefore = std::move(pending_tnt);
            pending_tnt.clear();
            step.lossBefore = loss_pending;
            loss_pending = false;
            result.steps.push_back(std::move(step));
            break;
          }
        }
    }
    result.trailingTnt = std::move(pending_tnt);
    result.bytesScanned = parser.offset() - start;
    result.startOffset = start;
    return result;
}

Result
decodeRecentTips(const std::vector<uint8_t> &bytes, size_t min_tips)
{
    const uint8_t *data = bytes.data();
    const size_t size = bytes.size();
    std::vector<uint64_t> syncs = trace::findPsbOffsets(data, size);
    if (syncs.empty())
        return decodeFrom(data, size, 0);

    uint64_t scanned = 0;
    size_t cutoff = syncs.size() - 1;
    size_t tips = 0;
    for (size_t i = syncs.size(); i-- > 0;) {
        const size_t seg_end = i + 1 < syncs.size()
            ? static_cast<size_t>(syncs[i + 1]) : size;
        Result segment = decodeFrom(
            data, size, static_cast<size_t>(syncs[i]), seg_end);
        scanned += segment.bytesScanned;
        for (const auto &step : segment.steps)
            tips += step.kind == StepKind::Tip ? 1 : 0;
        cutoff = i;
        if (tips >= min_tips)
            break;
    }

    Result result =
        decodeFrom(data, size, static_cast<size_t>(syncs[cutoff]));
    scanned += result.bytesScanned;
    result.bytesScanned = scanned;

    const size_t anchor = static_cast<size_t>(syncs[cutoff]);
    if (anchor >= 2 && data[anchor - 2] == 0x02 &&
        data[anchor - 1] == 0xF3) {
        ++result.overflows;
        if (!result.steps.empty())
            result.steps.front().lossBefore = true;
    }
    return result;
}

/** The transition fold the fast path runs over a reference result. */
std::vector<TipTransition>
transitions(const Result &flow)
{
    std::vector<TipTransition> out;
    uint64_t prev = 0;
    std::vector<uint8_t> tnt;
    for (const auto &step : flow.steps) {
        if (step.lossBefore) {
            prev = 0;
            tnt.clear();
        }
        tnt.insert(tnt.end(), step.tntBefore.begin(),
                   step.tntBefore.end());
        if (step.kind != StepKind::Tip || step.ipSuppressed)
            continue;
        out.push_back({prev, step.ip, std::move(tnt)});
        tnt.clear();
        prev = step.ip;
    }
    return out;
}

} // namespace ref

std::vector<uint8_t>
bitsOf(std::span<const uint8_t> bits)
{
    return {bits.begin(), bits.end()};
}

/** Asserts the new decoder reproduces the reference on `bytes`. */
void
expectSameDecode(const std::vector<uint8_t> &bytes, size_t min_tips)
{
    SCOPED_TRACE("min_tips " + std::to_string(min_tips) + ", " +
                 std::to_string(bytes.size()) + " bytes");
    const ref::Result want = ref::decodeRecentTips(bytes, min_tips);
    cpu::CycleAccount account;
    const FastDecodeResult got =
        decodeRecentTips(bytes, min_tips, &account);

    EXPECT_EQ(got.startOffset, want.startOffset);
    EXPECT_EQ(got.bytesScanned, want.bytesScanned);
    EXPECT_DOUBLE_EQ(account.decode,
                     static_cast<double>(want.bytesScanned) *
                         cpu::cost::sw_packet_decode_per_byte);
    EXPECT_EQ(got.overflows, want.overflows);
    EXPECT_EQ(got.resyncs, want.resyncs);
    EXPECT_EQ(got.bytesSkipped, want.bytesSkipped);
    EXPECT_EQ(got.malformed, want.malformed);
    EXPECT_EQ(got.packetCount, want.packetCount);
    EXPECT_EQ(got.psbCount, want.psbCount);
    EXPECT_EQ(bitsOf(got.trailingTnt()), want.trailingTnt);
    ASSERT_EQ(got.steps.size(), want.steps.size());
    for (size_t i = 0; i < want.steps.size(); ++i) {
        SCOPED_TRACE("step " + std::to_string(i));
        const FlowStep &step = got.steps[i];
        EXPECT_EQ(step.kind, want.steps[i].kind);
        EXPECT_EQ(step.ipSuppressed, want.steps[i].ipSuppressed);
        EXPECT_EQ(step.ip, want.steps[i].ip);
        EXPECT_EQ(bitsOf(got.tntBefore(step)), want.steps[i].tntBefore);
        EXPECT_EQ(step.lossBefore, want.steps[i].lossBefore);
    }

    const auto want_transitions = ref::transitions(want);
    const auto got_transitions = extractTipTransitions(got);
    ASSERT_EQ(got_transitions.size(), want_transitions.size());
    for (size_t i = 0; i < want_transitions.size(); ++i) {
        EXPECT_EQ(got_transitions[i].from, want_transitions[i].from);
        EXPECT_EQ(got_transitions[i].to, want_transitions[i].to);
        EXPECT_EQ(got_transitions[i].tnt, want_transitions[i].tnt);
    }
}

const size_t min_tips_sweep[] = {1, 30, 100, SIZE_MAX};

void
expectSameDecodeSweep(const std::vector<uint8_t> &bytes)
{
    for (size_t min_tips : min_tips_sweep)
        expectSameDecode(bytes, min_tips);
}

// --- inputs ------------------------------------------------------------

/**
 * A buffer mixing well-formed packets with the shapes the PSB search
 * must get right: short and long 0x02 0x82 runs at either byte parity,
 * runs cut by the buffer's ends, OVF right before a PSB, and garbage.
 */
std::vector<uint8_t>
randomStream(Rng &rng, size_t target)
{
    std::vector<uint8_t> out;
    uint64_t last_ip = 0;
    const uint8_t ops[] = {trace::opcode::tip, trace::opcode::tip_pge,
                           trace::opcode::tip_pgd, trace::opcode::fup};
    while (out.size() < target) {
        switch (rng.below(12)) {
          case 0:
          case 1:
          case 2:
            trace::appendTnt(out, static_cast<uint8_t>(rng.next()),
                             static_cast<int>(rng.range(1, 6)));
            break;
          case 3:
          case 4:
          case 5:
            trace::appendTipClass(out, ops[rng.below(4)],
                                  0x400000 + rng.below(0x20000), last_ip,
                                  rng.chance(0.1));
            break;
          case 6:
            trace::appendPsb(out);
            last_ip = 0;
            break;
          case 7:
            trace::appendOvf(out);
            trace::appendPsb(out);
            trace::appendPsbEnd(out);
            last_ip = 0;
            break;
          case 8: {
            // A PSB-like run of 1-12 pairs, maybe shifted by one byte.
            if (rng.chance(0.5))
                out.push_back(0x02);
            const uint64_t pairs = rng.range(1, 12);
            for (uint64_t k = 0; k < pairs; ++k) {
                out.push_back(0x02);
                out.push_back(0x82);
            }
            break;
          }
          case 9:
            out.push_back(static_cast<uint8_t>(rng.next()));
            break;
          case 10:
            trace::appendPad(out);
            break;
          default:
            trace::appendPsbEnd(out);
            break;
        }
    }
    return out;
}

/** Runs `requests` storm requests into a `ring`-byte ToPA and returns
 *  `samples` snapshots of it taken along the way. */
std::vector<std::vector<uint8_t>>
sampleRing(size_t ring, uint32_t psb_period, size_t requests,
           size_t every)
{
    const auto spec = stormSpec();
    const auto app = workloads::buildServerApp(spec);
    trace::Topa topa({ring / 2, ring - ring / 2});
    trace::IptConfig config;
    config.psbPeriodBytes = psb_period;
    trace::IptEncoder encoder(config, topa);
    RingSampler sampler(topa, every);
    cpu::Cpu cpu(app.program);
    cpu::BasicKernel kernel;
    kernel.setInput(workloads::makeBenignStream(
        requests, 7, spec.numHandlers, spec.numParserStates));
    cpu.setSyscallHandler(&kernel);
    cpu.addTraceSink(&encoder);
    cpu.addTraceSink(&sampler);
    EXPECT_EQ(cpu.run(5'000'000), cpu::Cpu::Stop::Halted);
    encoder.flushTnt();
    EXPECT_TRUE(topa.wrapped());
    EXPECT_EQ(topa.view().size(), topa.capacity());
    const auto last = topa.view();
    sampler.samples.emplace_back(last.begin(), last.end());
    return sampler.samples;
}

// --- the decode oracle -------------------------------------------------

TEST(SyncOracle, RandomBuffersMatchForwardScan)
{
    Rng rng(0x5eed);
    for (int round = 0; round < 300; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const size_t size = rng.range(0, 3000);
        std::vector<uint8_t> bytes;
        if (round % 5 == 0) {
            // Raw noise, PSB-free almost surely: the whole-buffer
            // fallback.
            for (size_t i = 0; i < size; ++i)
                bytes.push_back(static_cast<uint8_t>(rng.next()));
        } else {
            bytes = randomStream(rng, size);
            // Start mid-packet, as a wrapped ring does.
            const size_t cut =
                rng.below(std::min<size_t>(bytes.size(), 24) + 1);
            bytes.erase(bytes.begin(),
                        bytes.begin() + static_cast<int64_t>(cut));
        }
        expectSameDecodeSweep(bytes);
    }
}

TEST(SyncOracle, PsbRunEdgeCasesMatchForwardScan)
{
    // Runs of every length from 1 to 12 pairs, at both parities, at
    // the head, in the middle and at the tail of a buffer.
    for (size_t pairs = 1; pairs <= 12; ++pairs) {
        for (size_t shift = 0; shift < 2; ++shift) {
            std::vector<uint8_t> run(shift, 0x02);
            for (size_t k = 0; k < pairs; ++k) {
                run.push_back(0x02);
                run.push_back(0x82);
            }
            std::vector<uint8_t> body;
            uint64_t last_ip = 0;
            trace::appendPsb(body);
            for (int t = 0; t < 4; ++t) {
                trace::appendTnt(body, 0b101, 3);
                trace::appendTipClass(body, trace::opcode::tip,
                                      0x400100 + 0x10 * t, last_ip);
            }
            for (int layout = 0; layout < 3; ++layout) {
                std::vector<uint8_t> bytes;
                if (layout == 0)
                    bytes = run;
                bytes.insert(bytes.end(), body.begin(), body.end());
                if (layout == 1)
                    bytes.insert(bytes.end(), run.begin(), run.end());
                bytes.insert(bytes.end(), body.begin(), body.end());
                if (layout == 2)
                    bytes.insert(bytes.end(), run.begin(), run.end());
                SCOPED_TRACE("pairs " + std::to_string(pairs) +
                             " shift " + std::to_string(shift) +
                             " layout " + std::to_string(layout));
                expectSameDecodeSweep(bytes);
            }
        }
    }
}

TEST(SyncOracle, FaultedStormSnapshotsMatchForwardScan)
{
    const auto clean = sampleRing(16384, 1024, 400, 4099);
    ASSERT_FALSE(clean.empty());
    const trace::FaultMode modes[] = {
        trace::FaultMode::CorruptBytes, trace::FaultMode::FlipBits,
        trace::FaultMode::TruncateTail, trace::FaultMode::DropRegion};
    uint64_t seed = 1;
    for (trace::FaultMode mode : modes) {
        SCOPED_TRACE(trace::faultModeName(mode));
        for (size_t s = 0; s < clean.size(); s += 3) {
            for (int trial = 0; trial < 4; ++trial) {
                std::vector<uint8_t> bytes = clean[s];
                trace::FaultInjector faults(seed++);
                trace::FaultSpec spec;
                spec.mode = mode;
                spec.count = 1 + static_cast<uint32_t>(trial) * 5;
                spec.regionBytes = 256u << trial;
                faults.apply(spec, bytes);
                expectSameDecodeSweep(bytes);
            }
        }
    }
}

TEST(SyncOracle, WrappedRingsMatchForwardScan)
{
    for (uint32_t psb_period : {32u, 128u, 1024u}) {
        SCOPED_TRACE("psb period " + std::to_string(psb_period));
        // 768 bytes holds no PSB at period 1024 once wrapped: the
        // whole-ring fallback. 4096 holds several at every period.
        for (size_t ring : {size_t{768}, size_t{4096}}) {
            SCOPED_TRACE("ring " + std::to_string(ring));
            for (const auto &bytes :
                 sampleRing(ring, psb_period, 60, 1013))
                expectSameDecodeSweep(bytes);
        }
    }
}

// --- the in-place view -------------------------------------------------

void
expectViewMatchesSnapshot(const trace::Topa &topa)
{
    const auto view = topa.view();
    const auto snapshot = topa.snapshot();
    ASSERT_EQ(view.size(), snapshot.size());
    EXPECT_TRUE(std::equal(view.begin(), view.end(), snapshot.begin()));
}

TEST(TopaView, EqualsSnapshotAcrossWritesWrapsAndClear)
{
    Rng rng(99);
    for (size_t capacity : {size_t{1}, size_t{7}, size_t{64}, size_t{300}}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        trace::Topa topa({capacity});
        size_t pmis = 0;
        topa.setPmiCallback([&] {
            ++pmis;
            expectViewMatchesSnapshot(topa);
        });
        expectViewMatchesSnapshot(topa);
        for (int step = 0; step < 400; ++step) {
            if (step % 150 == 149) {
                topa.clear();
                EXPECT_TRUE(topa.view().empty());
            }
            std::vector<uint8_t> packet(rng.range(1, 40));
            for (auto &byte : packet)
                byte = static_cast<uint8_t>(rng.next());
            topa.write(packet.data(), packet.size());
            expectViewMatchesSnapshot(topa);
        }
        EXPECT_TRUE(topa.wrapped());
        EXPECT_GT(pmis, 0u);
    }
}

TEST(TopaView, EqualsSnapshotThroughDelayedPmiOverflow)
{
    // A DelayedPmi episode drops whole packets and zero-pads the torn
    // tail of the last region, which later views read as their oldest
    // bytes.
    Rng rng(7);
    trace::Topa topa({128, 128});
    trace::FaultInjector faults(3);
    faults.delayPmi(topa, 96);
    size_t pmis = 0;
    topa.setPmiCallback([&] {
        ++pmis;
        expectViewMatchesSnapshot(topa);
    });
    for (int step = 0; step < 2000; ++step) {
        std::vector<uint8_t> packet(rng.range(1, 17));
        for (auto &byte : packet)
            byte = static_cast<uint8_t>(rng.range(1, 255));
        topa.write(packet.data(), packet.size());
        expectViewMatchesSnapshot(topa);
    }
    EXPECT_GT(topa.overflowEpisodes(), 0u);
    EXPECT_GT(topa.droppedBytes(), 0u);
    EXPECT_GT(pmis, 0u);
}

} // namespace

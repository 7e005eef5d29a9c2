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
 * The same suite holds the fast path's TraceCursor to that decode:
 * on the storm server's live rings, through wraps, overflow episodes,
 * PMI checks that cut a packet, clears and a switch of rings, and
 * windows that widen and narrow, each window the cursor returns must
 * equal a fresh decodeRecentTipsInto of the same view, and the
 * transitions it kept must equal those folded from that decode. Beside
 * it, the slow path's cursor at 100 TIPs asks every few checks, and a
 * FastPathChecker kept across checks must give what a fresh checker of
 * the same bytes gives, in every result field and in its check charge,
 * while the graph changes between checks (learned credit, revocation,
 * a cleared overlay, unload and reload, a rebase, a restored copy).
 *
 * The walk oracle holds the slow path's kept walk (FlowWalk) to a
 * fresh decodeInstructionFlowInto of a fresh decode of each view, in
 * every field, and a slow checker kept across checks to a fresh
 * checker of the same bytes, on benign rings and on rings that carry a
 * ROP or SROP hijack.
 *
 * It also checks that Topa::view(), the in-place window the
 * synchronous checks read, always equals snapshot(), which is
 * assembled from the ring's primary half without the mirror.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "attacks/chains.hh"
#include "attacks/gadgets.hh"
#include "core/flowguard.hh"
#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "decode/fast_decoder.hh"
#include "decode/full_decoder.hh"
#include "runtime/fast_path.hh"
#include "runtime/slow_path.hh"
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
    /** Steps decoded before the first PSB. */
    uint64_t unsyncedSteps = 0;
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
    bool synced = false;
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
            synced = true;
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
            result.unsyncedSteps += !synced;
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
    // A bare buffer is taken to start its stream.
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
    EXPECT_EQ(got.unsyncedSteps, want.unsyncedSteps);
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

// --- the cursor --------------------------------------------------------

/**
 * Asserts the cursor's window of `view` equals a fresh anchored decode
 * of it, and that it is charged for what it read. Returns true when it
 * read less than the fresh decode.
 */
bool
expectCursorMatchesFresh(TraceCursor &cursor, const trace::StreamView &view,
                         size_t min_tips)
{
    SCOPED_TRACE("min_tips " + std::to_string(min_tips) + ", view [" +
                 std::to_string(view.offset) + ", +" +
                 std::to_string(view.bytes.size()) + ")");
    FastDecodeResult fresh;
    decodeRecentTipsInto(fresh, view.bytes, min_tips, nullptr, nullptr, 0,
                         view.offset);
    cpu::CycleAccount account;
    const FastDecodeResult &got = cursor.decode(view, min_tips, &account);

    EXPECT_DOUBLE_EQ(account.decode,
                     static_cast<double>(got.bytesScanned) *
                         cpu::cost::sw_packet_decode_per_byte);
    EXPECT_EQ(got.startOffset, fresh.startOffset);
    EXPECT_EQ(got.overflows, fresh.overflows);
    EXPECT_EQ(got.resyncs, fresh.resyncs);
    EXPECT_EQ(got.bytesSkipped, fresh.bytesSkipped);
    EXPECT_EQ(got.malformed, fresh.malformed);
    EXPECT_EQ(got.unsyncedSteps, fresh.unsyncedSteps);
    EXPECT_EQ(got.packetCount, fresh.packetCount);
    EXPECT_EQ(got.lossAtEnd, fresh.lossAtEnd);
    EXPECT_EQ(bitsOf(got.trailingTnt()), bitsOf(fresh.trailingTnt()));
    EXPECT_EQ(got.steps.size(), fresh.steps.size());
    const size_t steps = std::min(got.steps.size(), fresh.steps.size());
    for (size_t i = 0; i < steps; ++i) {
        const FlowStep &step = got.steps[i];
        const FlowStep &want = fresh.steps[i];
        if (step.kind == want.kind &&
            step.ipSuppressed == want.ipSuppressed && step.ip == want.ip &&
            bitsOf(got.tntBefore(step)) == bitsOf(fresh.tntBefore(want)) &&
            step.lossBefore == want.lossBefore)
            continue;
        ADD_FAILURE() << "step " << i << " of " << steps << " differs";
        break;
    }

    // The views the cursor kept, folded step by step across decodes and
    // trims, against the fresh window's.
    const std::span<const TransitionView> got_views = cursor.views();
    std::vector<TransitionView> want_views;
    extractTransitionViews(fresh, want_views);
    EXPECT_EQ(got_views.size(), want_views.size());
    for (size_t i = 0; i < std::min(got_views.size(), want_views.size());
         ++i) {
        if (got_views[i].from == want_views[i].from &&
            got_views[i].to == want_views[i].to &&
            bitsOf(got_views[i].tnt) == bitsOf(want_views[i].tnt))
            continue;
        ADD_FAILURE() << "transition " << i << " differs";
        break;
    }
    return got.bytesScanned < fresh.bytesScanned;
}

/** What one run of the cursor oracle exercised. */
struct CursorTally
{
    size_t checks = 0;
    /** Checks that read less than the fresh decode. */
    size_t cheaper = 0;
    /** Windows whose fresh decode saw an OVF. */
    size_t overflowWindows = 0;
    /** Windows whose view ended inside a packet. */
    size_t cutWindows = 0;
    /** Windows of a view with no PSB, cut mid-stream. */
    size_t unsyncedWindows = 0;
    size_t pmiChecks = 0;
    /** The slow leg's checks, and those that read less than the fresh
     *  decode. */
    size_t slowChecks = 0;
    size_t slowCheaper = 0;
    /** The fast leg's verdicts (its fresh checker's), and the checks
     *  that saw a TNT mismatch. */
    size_t fastPasses = 0;
    size_t fastViolations = 0;
    size_t tntMismatches = 0;
    /** Violations while the graph held the program where it runs. */
    size_t placedViolations = 0;
    /** Graph changes made between checks that changed its version. */
    size_t graphChanges = 0;
};

/** How the storm server's trace reaches the cursor. */
struct CursorRun
{
    size_t ring = 16384;
    uint32_t psbPeriod = 1024;
    /** PMI service latency in bytes (DelayedPmi); 0 is instant. */
    size_t pmiLatency = 0;
    /** Also check at every PMI, alternating pkt_count 30 and the
     *  whole ring. */
    bool checkAtPmi = false;
    /** Clear the ring and restart the stream every so many samples. */
    size_t clearEvery = 0;
    /** Check a second ring, fed by its own encoder with a different
     *  PSB period, every other run of 50 samples. */
    bool secondRing = false;
    size_t requests = 1500;
    /** Retired branches between samples. */
    size_t every = 29;
    /** A request sent after the benign ones (an exploit), if any. */
    std::vector<uint8_t> attack;
};

/** pkt_count at the `sample`th check: mostly 30, then 120, 30, the
 *  whole ring and 30 again, over and over. */
size_t
pktCountAt(size_t sample)
{
    switch (sample % 40) {
      case 13: return 120;
      case 27: return SIZE_MAX;
      default: return 30;
    }
}

/** True when `view`, decoded from the fresh window's anchor, ends
 *  inside a packet. */
bool
endsInsidePacket(const trace::StreamView &view, const FastDecodeResult &fresh)
{
    if (fresh.steps.empty() && fresh.startOffset == 0)
        return false;
    PacketParser parser(view.bytes.data(), view.bytes.size());
    parser.seek(fresh.startOffset);
    Packet pkt;
    while (parser.next(pkt)) {
    }
    return parser.truncated();
}

/**
 * Runs the storm server under IPT as `run` says and hands `check` each
 * ring view the checks read, with the window's TIP count: at every
 * sampled endpoint, and with `checkAtPmi` at every PMI. Returns the
 * PMI checks.
 */
size_t
driveStormRing(const workloads::SyntheticApp &app, const CursorRun &run,
               const std::function<void(const trace::Topa &, size_t)> &check)
{
    const auto spec = stormSpec();
    const auto regions = std::vector<size_t>{run.ring / 2,
                                             run.ring - run.ring / 2};
    trace::Topa topa(regions);
    trace::Topa second(regions);
    trace::IptConfig config;
    config.psbPeriodBytes = run.psbPeriod;
    trace::IptEncoder encoder(config, topa);
    trace::IptConfig second_config;
    second_config.psbPeriodBytes = run.psbPeriod / 2 + 48;
    trace::IptEncoder second_encoder(second_config, second);
    trace::FaultInjector faults(5);
    if (run.pmiLatency > 0)
        faults.delayPmi(topa, run.pmiLatency);

    size_t pmis = 0;
    if (run.checkAtPmi) {
        topa.setPmiCallback(
            [&] { check(topa, pmis++ % 2 == 0 ? 30 : SIZE_MAX); });
    }

    struct Sampler : cpu::TraceSink
    {
        std::function<void()> sample;
        size_t every = 1;
        size_t seen = 0;

        void
        onBranch(const cpu::BranchEvent &) override
        {
            if (++seen % every == 0)
                sample();
        }
    } sampler;
    sampler.every = run.every;
    size_t samples = 0;
    sampler.sample = [&] {
        ++samples;
        // An endpoint flushes the pending outcomes first; a PMI does
        // not.
        if (samples % 3 != 0)
            encoder.flushTnt();
        const size_t min_tips = pktCountAt(samples);
        if (run.secondRing && samples / 50 % 2 == 1) {
            second_encoder.flushTnt();
            check(second, min_tips);
        } else {
            check(topa, min_tips);
        }
        if (run.clearEvery > 0 && samples % run.clearEvery == 0) {
            topa.clear();
            encoder.restartStream();
        }
    };

    cpu::Cpu cpu(app.program);
    cpu::BasicKernel kernel;
    auto input = workloads::makeBenignStream(
        run.requests, 7, spec.numHandlers, spec.numParserStates);
    input.insert(input.end(), run.attack.begin(), run.attack.end());
    kernel.setInput(input);
    cpu.setSyscallHandler(&kernel);
    cpu.addTraceSink(&encoder);
    if (run.secondRing)
        cpu.addTraceSink(&second_encoder);
    cpu.addTraceSink(&sampler);
    EXPECT_EQ(cpu.run(5'000'000), cpu::Cpu::Stop::Halted);
    if (run.clearEvery == 0) {
        EXPECT_TRUE(topa.wrapped());
    }
    return pmis;
}

/** The slow leg's pace: it asks after 1, 2, 3, 4, 5, 1, ... checks. */
struct SlowPace
{
    size_t gap = 1;
    size_t since = 0;

    bool
    due()
    {
        if (++since < gap)
            return false;
        since = 0;
        gap = gap % 5 + 1;
        return true;
    }
};

/** Asserts two fast-path results agree in every field. */
void
expectSameFastResult(const runtime::FastPathResult &got,
                     const runtime::FastPathResult &want)
{
    EXPECT_EQ(got.verdict, want.verdict);
    EXPECT_EQ(got.tipsChecked, want.tipsChecked);
    EXPECT_EQ(got.edgesChecked, want.edgesChecked);
    EXPECT_EQ(got.highCreditEdges, want.highCreditEdges);
    EXPECT_EQ(got.tntMismatches, want.tntMismatches);
    EXPECT_EQ(got.pathMisses, want.pathMisses);
    EXPECT_EQ(got.violatingFrom, want.violatingFrom);
    EXPECT_EQ(got.violatingTo, want.violatingTo);
    EXPECT_EQ(got.unknownTips, want.unknownTips);
    EXPECT_EQ(got.jitTips, want.jitTips);
    EXPECT_EQ(got.staleHit, want.staleHit);
    EXPECT_EQ(got.forceSlow, want.forceSlow);
    EXPECT_EQ(got.overflows, want.overflows);
    EXPECT_EQ(got.resyncs, want.resyncs);
    EXPECT_EQ(got.bytesSkipped, want.bytesSkipped);
    EXPECT_EQ(got.malformed, want.malformed);
}

/**
 * Changes the fast leg's graph between checks as the runtime does:
 * committed credit (every few checks, the last window's pairs), a
 * revocation, a checker crash, an unload and reload, a rebase and its
 * undoing, and a copy of the pristine graph assigned back. A kept
 * checker must notice each of them.
 */
struct GraphChurn
{
    analysis::ItcCfg &itc;
    const analysis::ItcCfg pristine;
    /** The library's code range: what unloads and loses credit. */
    uint64_t libBegin = 0;
    uint64_t libEnd = 0;
    /** What a rebase moves every address by, for one check. */
    static constexpr int64_t rebase_delta = 0x100000;
    /** The library is unloaded or every address moved: benign trace
     *  may convict. */
    bool displaced = false;

    GraphChurn(analysis::ItcCfg &graph, const isa::Program &program)
        : itc(graph), pristine(graph)
    {
        for (const isa::LoadedModule &mod : program.modules()) {
            if (mod.kind != isa::ModuleKind::Executable) {
                libBegin = mod.codeBase;
                libEnd = mod.codeEnd;
            }
        }
    }

    /** The change after the `check`th check; true when there was one. */
    bool
    apply(size_t check, const std::vector<TransitionView> &window)
    {
        const uint64_t before = itc.version();
        switch (check % 60) {
          case 7:
            itc.revokeRuntimeCreditsInRange(libBegin, libEnd);
            break;
          case 19:
            itc.clearRuntime();
            break;
          case 29:
            if (!itc.livenessEnabled())
                itc.enableLiveness();
            itc.deactivateRange(libBegin, libEnd);
            displaced = true;
            break;
          case 31:
            itc.activateRange(libBegin, libEnd);
            displaced = false;
            break;
          case 41:
            itc.applyRebase(0, UINT64_MAX - rebase_delta, rebase_delta);
            displaced = true;
            break;
          case 42:
            itc.applyRebase(rebase_delta, UINT64_MAX, -rebase_delta);
            displaced = false;
            break;
          case 53:
            itc = pristine;
            break;
          default:
            if (check % 3 != 0)
                break;
            for (const TransitionView &view : window) {
                const int64_t edge = itc.findEdge(view.from, view.to);
                if (view.from != 0 && edge >= 0)
                    itc.learn(edge, view.tnt);
            }
        }
        return itc.version() != before;
    }
};

CursorTally
runCursorOracle(const CursorRun &run)
{
    const auto app = workloads::buildServerApp(stormSpec());
    FlowGuard guard(app.program);
    guard.analyze();
    // The fast path's cursor at each check's pkt_count, and beside it
    // the slow path's at 100 TIPs over the same ring, asking less often.
    TraceCursor cursor;
    TraceCursor slow;
    SlowPace pace;
    CursorTally tally;
    // The fast leg: a checker kept across checks, held to a fresh one
    // of the same bytes, over a graph that changes between checks.
    GraphChurn churn(guard.itc(), app.program);
    cpu::CycleAccount kept_cycles;
    runtime::FastPathChecker kept(guard.itc(), app.program, {},
                                  &kept_cycles);
    std::vector<TransitionView> window;
    const auto check = [&](const trace::Topa &ring, size_t min_tips) {
        const trace::StreamView view = ring.streamView();
        FastDecodeResult fresh;
        decodeRecentTipsInto(fresh, view.bytes, min_tips, nullptr,
                             nullptr, 0, view.offset);
        ++tally.checks;
        tally.overflowWindows += fresh.overflows > 0 ? 1 : 0;
        tally.cutWindows += endsInsidePacket(view, fresh) ? 1 : 0;
        tally.unsyncedWindows +=
            fresh.resyncs > 0 && fresh.bytesSkipped == view.bytes.size()
                ? 1 : 0;
        tally.cheaper +=
            expectCursorMatchesFresh(cursor, view, min_tips) ? 1 : 0;
        if (pace.due()) {
            ++tally.slowChecks;
            tally.slowCheaper +=
                expectCursorMatchesFresh(slow, view, 100) ? 1 : 0;
        }

        const double kept_check = kept_cycles.check;
        const runtime::FastPathResult got = kept.check(view, min_tips);
        cpu::CycleAccount fresh_cycles;
        const runtime::FastPathChecker fresh_checker(
            guard.itc(), app.program, {}, &fresh_cycles);
        const runtime::FastPathResult want = fresh_checker.check(
            trace::StreamView{view.bytes, view.offset}, min_tips);
        expectSameFastResult(got, want);
        EXPECT_DOUBLE_EQ(kept_cycles.check - kept_check, fresh_cycles.check);
        tally.fastPasses += want.verdict == runtime::CheckVerdict::Pass;
        tally.fastViolations +=
            want.verdict == runtime::CheckVerdict::Violation;
        tally.placedViolations +=
            want.verdict == runtime::CheckVerdict::Violation &&
            !churn.displaced;
        tally.tntMismatches += want.tntMismatches > 0 ? 1 : 0;

        extractTransitionViews(fresh, window);
        tally.graphChanges += churn.apply(tally.checks, window) ? 1 : 0;
    };
    tally.pmiChecks = driveStormRing(app, run, check);
    return tally;
}

TEST(CursorOracle, StormRingWindowsMatchFreshDecode)
{
    // perfbench's ring: 16 KiB, a PSB every KiB, wrapped several times.
    const CursorTally tally = runCursorOracle({});
    EXPECT_GT(tally.checks, 1000u);
    // Most checks read only what is new, at either window.
    EXPECT_GT(tally.cheaper, tally.checks * 3 / 4);
    EXPECT_GT(tally.slowChecks, tally.checks / 4);
    EXPECT_GT(tally.slowCheaper, tally.slowChecks * 3 / 4);
    // The fast leg passed, saw TNT mismatches and convicted, under a
    // graph that changed often, but only while the graph had the
    // library unloaded or the program moved.
    EXPECT_GT(tally.fastPasses, tally.checks / 5);
    EXPECT_GT(tally.tntMismatches, tally.checks / 10);
    EXPECT_GT(tally.fastViolations, 0u);
    EXPECT_EQ(tally.placedViolations, 0u);
    EXPECT_GT(tally.graphChanges, tally.checks / 5);
}

TEST(CursorOracle, OverflowEpisodesMatchFreshDecode)
{
    // DelayedPmi: each wrap drops trace, then OVF + PSB, so windows
    // anchor right after an OVF; the PMI checks run at the end of
    // each episode.
    CursorRun run;
    run.ring = 4096;
    run.pmiLatency = 700;
    run.checkAtPmi = true;
    const CursorTally tally = runCursorOracle(run);
    EXPECT_GT(tally.pmiChecks, 5u);
    EXPECT_GT(tally.overflowWindows, 50u);
    EXPECT_GT(tally.cheaper, tally.checks / 2);
    EXPECT_GT(tally.slowCheaper, tally.slowChecks / 2);
}

TEST(CursorOracle, PmiChecksInsideWrapsMatchFreshDecode)
{
    // An instant PMI runs inside the write that wraps the ring, so its
    // view ends inside the packet being written.
    CursorRun run;
    run.ring = 4096;
    run.checkAtPmi = true;
    run.every = 53;
    const CursorTally tally = runCursorOracle(run);
    EXPECT_GT(tally.pmiChecks, 5u);
    EXPECT_GT(tally.cutWindows, 0u);
    EXPECT_GT(tally.cheaper, tally.checks / 2);
    EXPECT_GT(tally.slowCheaper, tally.slowChecks / 2);
}

TEST(CursorOracle, ClearsAndASecondRingMatchFreshDecode)
{
    // Each clear starts a new stream whose offsets restart at 0, and
    // the two rings hold different bytes at the same offsets: only the
    // stream identity tells the cursor it cannot go on.
    CursorRun run;
    run.clearEvery = 97;
    run.secondRing = true;
    const CursorTally tally = runCursorOracle(run);
    EXPECT_GT(tally.checks, 1000u);
    EXPECT_GT(tally.cheaper, tally.checks / 2);
    EXPECT_GT(tally.slowCheaper, tally.slowChecks / 2);
}

TEST(CursorOracle, RopRingsMatchFreshChecker)
{
    // The ROP chain rides the storm server's implanted overflow after a
    // run of benign requests; checks after every branch, so some
    // windows end inside the chain.
    const auto app = workloads::buildServerApp(stormSpec());
    const auto catalog = attacks::scanGadgets(app.program);
    CursorRun run;
    run.ring = 4096;
    run.requests = 100;
    run.every = 1;
    run.attack =
        attacks::buildRopWriteAttack(app.program, catalog).request;
    const CursorTally tally = runCursorOracle(run);
    EXPECT_GT(tally.placedViolations, 0u);
    EXPECT_GT(tally.cheaper, tally.checks / 2);
}

TEST(CursorOracle, RingsWithoutPsbMatchFreshDecode)
{
    // A PSB period longer than the ring: after a wrap, some views hold
    // no PSB and report a sync loss.
    CursorRun run;
    run.ring = 1024;
    run.psbPeriod = 2048;
    run.every = 11;
    run.requests = 200;
    const CursorTally tally = runCursorOracle(run);
    EXPECT_GT(tally.unsyncedWindows, 0u);
    EXPECT_GT(tally.cheaper, 0u);
    EXPECT_GT(tally.slowCheaper, 0u);
}

/**
 * A stream whose packet layout does not depend on `seed`: PSB + PSBEND
 * every 16 TIPs, and before each TIP one 6-outcome TNT. The TIPs
 * alternate between two 64 KiB pages, so each carries a 4-byte IP.
 * Streams of two seeds thus differ in every outcome and IP while their
 * packets start at the same offsets.
 */
std::vector<uint8_t>
alignedStream(uint64_t seed, size_t tips)
{
    Rng rng(seed);
    std::vector<uint8_t> out;
    uint64_t last_ip = 0;
    for (size_t i = 0; i < tips; ++i) {
        if (i % 16 == 0) {
            trace::appendPsb(out);
            trace::appendPsbEnd(out);
            last_ip = 0;
        }
        trace::appendTnt(out, static_cast<uint8_t>(rng.next()), 6);
        const uint64_t ip =
            0x400000 + ((i % 2) << 16) + rng.below(0x10000);
        trace::appendTipClass(out, trace::opcode::tip, ip, last_ip);
    }
    return out;
}

TEST(CursorOracle, AClearedOrSecondRingIsANewStream)
{
    // The second view holds other bytes at the offsets the cursor
    // stopped at, on a packet boundary: only the stream identity says
    // the records do not describe it.
    const auto first = alignedStream(1, 200);
    const auto other = alignedStream(2, 200);
    ASSERT_EQ(first.size(), other.size());
    const size_t cut = alignedStream(1, 100).size();
    for (bool clear : {true, false}) {
        SCOPED_TRACE(clear ? "cleared ring" : "second ring");
        trace::Topa ring({8192});
        trace::Topa second({8192});
        TraceCursor cursor;
        ring.write(first.data(), cut);
        expectCursorMatchesFresh(cursor, ring.streamView(), 30);
        if (clear)
            ring.clear();
        trace::Topa &next = clear ? ring : second;
        next.write(other.data(), cut + 60);
        expectCursorMatchesFresh(cursor, next.streamView(), 30);
        // The same stream goes on from where it stopped.
        next.write(other.data() + cut + 60, 60);
        EXPECT_TRUE(expectCursorMatchesFresh(cursor, next.streamView(), 30));
    }
}

// --- the kept walk ------------------------------------------------------

/** What one run of the walk oracle exercised. */
struct WalkTally
{
    size_t walks = 0;
    /** Windows anchored at a PSB of the previous window, decoded since
     *  the same cold start: the walks the kept one may go on with. */
    size_t continued = 0;
    /** Walks whose fresh twin reset at a trace gap. */
    size_t lossWalks = 0;
    /** Slow checks the fresh checker convicted. */
    size_t violations = 0;
};

/** Asserts two walks agree in every field. */
void
expectSameWalk(const FullDecodeResult &got, const FullDecodeResult &want)
{
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.startIp, want.startIp);
    EXPECT_EQ(got.instructionsWalked, want.instructionsWalked);
    EXPECT_EQ(got.lossBranchIndices, want.lossBranchIndices);
    EXPECT_EQ(got.overflows, want.overflows);
    EXPECT_EQ(got.resyncs, want.resyncs);
    EXPECT_EQ(got.bytesSkipped, want.bytesSkipped);
    EXPECT_EQ(got.branches.size(), want.branches.size());
    const size_t branches = std::min(got.branches.size(),
                                     want.branches.size());
    for (size_t i = 0; i < branches; ++i) {
        const DecodedBranch &branch = got.branches[i];
        const DecodedBranch &expect = want.branches[i];
        if (branch.kind == expect.kind && branch.source == expect.source &&
            branch.target == expect.target)
            continue;
        ADD_FAILURE() << "branch " << i << " of " << branches
                      << " differs";
        break;
    }
}

/** Asserts two slow-path results agree in every field. */
void
expectSameSlowResult(const runtime::SlowPathResult &got,
                     const runtime::SlowPathResult &want)
{
    EXPECT_EQ(got.verdict, want.verdict);
    EXPECT_EQ(got.branchesChecked, want.branchesChecked);
    EXPECT_EQ(got.instructionsWalked, want.instructionsWalked);
    EXPECT_EQ(got.violatingSource, want.violatingSource);
    EXPECT_EQ(got.violatingTarget, want.violatingTarget);
    EXPECT_EQ(got.reason, want.reason);
    EXPECT_EQ(got.degraded, want.degraded);
    EXPECT_EQ(got.staleHit, want.staleHit);
}

/**
 * Drives the storm server's ring as `run` says and, at the slow leg's
 * pace, holds the kept walk of a 100-TIP cursor to a fresh walk of a
 * fresh decode of the same view, and a slow checker kept across
 * checks to a fresh checker of the same bytes, charges included.
 */
WalkTally
runWalkOracle(const CursorRun &run)
{
    const auto app = workloads::buildServerApp(stormSpec());
    FlowGuard guard(app.program);
    guard.analyze();
    const isa::Program &program = app.program;

    TraceCursor cursor;
    FlowWalk walk;
    cpu::CycleAccount kept_cycles;
    runtime::SlowPathChecker kept(guard.ocfg(), guard.typearmor(),
                                  &kept_cycles);
    SlowPace pace;
    WalkTally tally;
    // The previous window's PSBs and the cold start it went on from.
    std::vector<uint64_t> previous;
    uint64_t previous_start = 0;
    const auto check = [&](const trace::Topa &ring, size_t) {
        if (!pace.due())
            return;
        const trace::StreamView view = ring.streamView();
        SCOPED_TRACE("walk " + std::to_string(tally.walks) + ", view [" +
                     std::to_string(view.offset) + ", +" +
                     std::to_string(view.bytes.size()) + ")");
        ++tally.walks;

        cursor.decode(view, 100);
        const auto records = cursor.records();
        tally.continued +=
            !records.empty() &&
                cursor.origin().coldStart == previous_start &&
                std::ranges::find(previous, records.front().offset) !=
                    previous.end()
            ? 1 : 0;
        previous.clear();
        for (const auto &record : records)
            previous.push_back(record.offset);
        previous_start = cursor.origin().coldStart;

        cpu::CycleAccount got_cycles, want_cycles;
        const FullDecodeResult &got = walk.walk(program, cursor, &got_cycles);
        FastDecodeResult window;
        decodeRecentTipsInto(window, view.bytes, 100, nullptr, nullptr, 0,
                             view.offset);
        FullDecodeResult want;
        decodeInstructionFlowInto(want, program, window, &want_cycles);
        expectSameWalk(got, want);
        EXPECT_DOUBLE_EQ(got_cycles.decode, want_cycles.decode);
        tally.lossWalks += want.lossBranchIndices.empty() ? 0 : 1;

        const cpu::CycleAccount kept_before = kept_cycles;
        const runtime::SlowPathResult slow = kept.check(view);
        cpu::CycleAccount fresh_cycles;
        runtime::SlowPathChecker fresh(guard.ocfg(), guard.typearmor(),
                                       &fresh_cycles);
        const runtime::SlowPathResult expect =
            fresh.check(trace::StreamView{view.bytes, view.offset});
        expectSameSlowResult(slow, expect);
        EXPECT_DOUBLE_EQ(kept_cycles.decode - kept_before.decode,
                         fresh_cycles.decode);
        EXPECT_DOUBLE_EQ(kept_cycles.check - kept_before.check,
                         fresh_cycles.check);
        tally.violations +=
            expect.verdict == runtime::CheckVerdict::Violation ? 1 : 0;
    };
    driveStormRing(app, run, check);
    return tally;
}

TEST(WalkOracle, StormRingWalksMatchFreshWalk)
{
    const WalkTally tally = runWalkOracle({});
    EXPECT_GT(tally.walks, 500u);
    // Nearly every window is anchored where the previous one walked.
    EXPECT_GT(tally.continued, tally.walks * 3 / 4);
    EXPECT_EQ(tally.violations, 0u);
}

TEST(WalkOracle, OverflowEpisodesMatchFreshWalk)
{
    // OVF episodes inside the windows: the walk resets at each gap. A
    // PSB every 256 bytes splits a 100-TIP window into several
    // segments, so its anchor moves past PSBs in front of an OVF it
    // still holds, and the loss indices it keeps must be rebased.
    CursorRun run;
    run.ring = 4096;
    run.psbPeriod = 256;
    run.pmiLatency = 700;
    run.checkAtPmi = true;
    const WalkTally tally = runWalkOracle(run);
    EXPECT_GT(tally.lossWalks, 50u);
    EXPECT_GT(tally.continued, tally.walks / 2);
}

TEST(WalkOracle, CutWindowsClearsAndASecondRingMatchFreshWalk)
{
    CursorRun cut;
    cut.ring = 4096;
    cut.checkAtPmi = true;
    cut.every = 53;
    EXPECT_GT(runWalkOracle(cut).continued, 0u);
    CursorRun rings;
    rings.clearEvery = 97;
    rings.secondRing = true;
    EXPECT_GT(runWalkOracle(rings).continued, 0u);
}

TEST(WalkOracle, RopAndSropRingsMatchFreshChecker)
{
    // The exploits ride the storm server's implanted overflow after a
    // run of benign requests; the windows that hold the hijack are
    // convicted, and the walk must not go on wrongly past them.
    const auto app = workloads::buildServerApp(stormSpec());
    const auto catalog = attacks::scanGadgets(app.program);
    const attacks::AttackInfo attacks[] = {
        attacks::buildRopWriteAttack(app.program, catalog),
        attacks::buildSropAttack(app.program, catalog),
    };
    for (const attacks::AttackInfo &attack : attacks) {
        SCOPED_TRACE(attack.description);
        // Checks after every few branches, so some windows end inside
        // the short chain.
        CursorRun run;
        run.ring = 4096;
        run.requests = 100;
        run.every = 1;
        run.attack = attack.request;
        const WalkTally tally = runWalkOracle(run);
        EXPECT_GT(tally.violations, 0u);
        EXPECT_GT(tally.continued, tally.walks / 2);
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

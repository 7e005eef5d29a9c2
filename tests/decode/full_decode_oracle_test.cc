/**
 * @file
 * Differential oracle for the instruction-flow decoder.
 *
 * `ref::decodeInstructionFlow` below is the full decoder as it was
 * when it ran its own packet loop: it flattened the bytes into one
 * event per TNT bit or TIP-class packet, with a Loss event at each
 * OVF or resync, and walked the binaries over that stream. It is kept
 * here, test-only, as the specification. The decoder under test walks
 * the packet layer's steps and TNT slices instead, and must produce
 * the same status, start IP, branches, instruction count, gap
 * indices and loss counters (so the same modeled decode charge), both
 * on whole buffers and on the tail-anchored windows the slow path
 * hands it. Each is a TraceCursor cold start on bytes that stand
 * alone, so it reads from its anchor PSB (a whole buffer's oldest);
 * the reference is handed the bytes from that PSB on.
 *
 * The two packet loops used to disagree in three places, and the
 * inputs below are chosen to reach each of them:
 *  - outcomes between the last step and an OVF or resync: the walk
 *    consumes them before it re-anchors;
 *  - TIP-class packets before the first PSB: the walk ignores them.
 *    Only a buffer with no PSB at all, taken to start its stream, is
 *    decoded before one;
 *  - the OVF right before a window's anchor PSB. This is the one
 *    stated difference: the packet layer counts it in `overflows`
 *    (the gap lies inside the history the window covers), while the
 *    reference, handed only the bytes from the PSB on, never saw it.
 *    The walk itself does not re-anchor on it.
 *
 * The walk moves a straight-line run at a time (Program::runEnd); the
 * reference moves one instruction at a time, so every comparison also
 * holds the run walk's count, budget and fall-off to it. Hand-built
 * traces below reach the places a run walk could count differently:
 * a run left off mapped code, and a PGD/PGE pause at a run's first
 * instruction followed by a loss or by the end of the trace.
 *
 * The anchored window below is the slow path's cold start: its cursor
 * decodes 100 TIPs, and a pass stages that same decode for the verdict
 * cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "decode/fast_decoder.hh"
#include "decode/full_decoder.hh"
#include "isa/builder.hh"
#include "isa/loader.hh"
#include "telemetry/telemetry.hh"
#include "trace/faults.hh"
#include "trace/ipt.hh"
#include "trace/ipt_packets.hh"
#include "workloads/apps.hh"
#include "storm_ring.hh"

namespace {

using namespace flowguard;
using test::RingSampler;
using test::stormSpec;
using decode::FullDecodeResult;

// --- the reference: the flattening decoder, verbatim ------------------

namespace ref {

using cpu::BranchKind;
using isa::Instruction;
using isa::Opcode;
using trace::Packet;
using trace::PacketKind;
using trace::PacketParser;

namespace {

/** Flattened packet stream: one entry per TNT *bit* or TIP-class
 *  packet, in emission order. A Loss entry marks a trace gap (OVF or
 *  resync past undecodable bytes): events on its two sides must not
 *  be paired. */
struct Event
{
    enum class Kind : uint8_t { TntBit, Tip, Pge, Pgd, Fup, Loss };
    Kind kind;
    uint8_t bit = 0;
    bool suppressed = false;
    uint64_t ip = 0;
};

struct EventStream
{
    std::vector<Event> events;
    size_t cursor = 0;

    bool done() const { return cursor >= events.size(); }
    const Event &peek() const { return events[cursor]; }
    void consume() { ++cursor; }
};

} // namespace

FullDecodeResult
decodeInstructionFlow(const isa::Program &program, const uint8_t *data,
                      size_t size, cpu::CycleAccount *account,
                      telemetry::Telemetry *telemetry, uint64_t cr3)
{
    const uint64_t span_begin = telemetry ? telemetry->now() : 0;
    FullDecodeResult result;

    // --- flatten packets into an event stream ---------------------------
    EventStream stream;
    bool synced = false;        // saw a PSB
    bool started = false;       // found the first addressable IP
    {
        PacketParser parser(data, size);
        Packet pkt;
        while (true) {
            if (!parser.next(pkt)) {
                if (!parser.bad())
                    break;      // clean end of buffer
                // Malformed bytes: skip to the next validated PSB and
                // record the gap so the walk re-anchors there.
                const size_t bad_at =
                    static_cast<size_t>(parser.offset());
                const size_t psb =
                    trace::findNextPsb(data, size, bad_at + 1);
                if (psb == SIZE_MAX) {
                    result.bytesSkipped += size - bad_at;
                    break;
                }
                result.bytesSkipped += psb - bad_at;
                ++result.resyncs;
                parser.seek(psb);
                if (started)
                    stream.events.push_back(
                        {Event::Kind::Loss, 0, false, 0});
                continue;
            }
            switch (pkt.kind) {
              case PacketKind::Pad:
              case PacketKind::PsbEnd:
                break;
              case PacketKind::Psb:
                synced = true;
                break;
              case PacketKind::Ovf:
                ++result.overflows;
                if (started)
                    stream.events.push_back(
                        {Event::Kind::Loss, 0, false, 0});
                break;
              case PacketKind::Tnt:
                if (!started)
                    break;  // outcomes before a known IP are unusable
                for (int i = 0; i < pkt.tntCount; ++i)
                    stream.events.push_back(
                        {Event::Kind::TntBit,
                         static_cast<uint8_t>((pkt.tntBits >> i) & 1),
                         false, 0});
                break;
              case PacketKind::Tip:
              case PacketKind::TipPge:
              case PacketKind::TipPgd:
              case PacketKind::Fup: {
                if (!synced)
                    break;  // cannot trust IP compression before PSB
                Event::Kind kind =
                    pkt.kind == PacketKind::Tip ? Event::Kind::Tip
                    : pkt.kind == PacketKind::TipPge ? Event::Kind::Pge
                    : pkt.kind == PacketKind::TipPgd ? Event::Kind::Pgd
                    : Event::Kind::Fup;
                if (!started) {
                    // First addressable packet: a TIP or PGE target
                    // gives us the walk's start IP.
                    if ((kind == Event::Kind::Tip ||
                         kind == Event::Kind::Pge) &&
                        !pkt.ipSuppressed) {
                        result.startIp = pkt.ip;
                        started = true;
                    }
                    break;  // the sync packet itself is not replayed
                }
                stream.events.push_back(
                    {kind, 0, pkt.ipSuppressed, pkt.ip});
                break;
              }
            }
        }
    }

    if (!started) {
        result.status = FullDecodeResult::Status::NoSync;
        result.error = "no PSB-anchored TIP/PGE to start from";
        return result;
    }

    // --- instruction-by-instruction walk --------------------------------
    auto desync = [&](const std::string &why) {
        result.status = FullDecodeResult::Status::Desync;
        result.error = why;
    };

    // Reconstruction past the last packet is unverifiable; stop once
    // every event is consumed. The walk budget is a backstop against
    // pathological direct-branch cycles in malformed programs.
    constexpr uint64_t walk_budget = 50'000'000;
    uint64_t ip = result.startIp;
    bool walking = true;

    // Resumes the walk after a trace gap: events up to the next
    // packet naming an address were orphaned by the loss, and the
    // anchor itself (like the initial sync) is not replayed. Returns
    // false when the trace ends inside the gap.
    auto reanchor = [&]() -> bool {
        while (!stream.done()) {
            const Event &ev = stream.peek();
            if ((ev.kind == Event::Kind::Tip ||
                 ev.kind == Event::Kind::Pge) &&
                !ev.suppressed) {
                result.lossBranchIndices.push_back(
                    result.branches.size());
                ip = ev.ip;
                stream.consume();
                return true;
            }
            stream.consume();
        }
        result.lossBranchIndices.push_back(result.branches.size());
        return false;
    };

    while (walking && !stream.done()) {
        if (stream.peek().kind == Event::Kind::Loss) {
            // Nothing between here and the next addressable packet
            // can be verified; resume the walk on the far side.
            stream.consume();
            if (!reanchor())
                break;
            continue;
        }
        if (result.instructionsWalked >= walk_budget) {
            desync("instruction walk budget exceeded");
            break;
        }
        const Instruction *inst = program.fetch(ip);
        if (!inst) {
            result.status = FullDecodeResult::Status::BadFlow;
            result.error = "flow left mapped code";
            break;
        }
        ++result.instructionsWalked;
        const uint64_t next = ip + isa::instSize(inst->op);

        // Transparent handling of context-switch pauses: a PGD not
        // explained by a syscall instruction must be followed by a PGE
        // resuming exactly where we paused.
        while (!stream.done() &&
               stream.peek().kind == Event::Kind::Pgd &&
               inst->op != Opcode::Syscall) {
            stream.consume();
            if (stream.done()) {
                walking = false;
                break;
            }
            const Event &resume = stream.peek();
            if (resume.kind == Event::Kind::Loss)
                break;  // gap swallowed the resume; re-anchor above
            if (resume.kind != Event::Kind::Pge || resume.ip != ip) {
                desync("context resumed at an unexpected address");
                walking = false;
                break;
            }
            stream.consume();
        }
        if (!walking || result.status != FullDecodeResult::Status::Ok)
            break;
        if (!stream.done() &&
            stream.peek().kind == Event::Kind::Loss)
            continue;   // resolve the gap before consuming anything

        switch (inst->op) {
          case Opcode::Jcc: {
            if (stream.done()) {
                walking = false;
                break;
            }
            const Event &ev = stream.peek();
            if (ev.kind == Event::Kind::Loss)
                break;  // re-anchor at the top of the loop
            if (ev.kind != Event::Kind::TntBit) {
                desync("expected TNT outcome at conditional branch");
                walking = false;
                break;
            }
            const bool taken = ev.bit != 0;
            stream.consume();
            result.branches.push_back(
                {taken ? BranchKind::CondTaken
                       : BranchKind::CondNotTaken,
                 ip, taken ? inst->target : next});
            ip = taken ? inst->target : next;
            break;
          }

          case Opcode::Jmp:
            result.branches.push_back(
                {BranchKind::DirectJump, ip, inst->target});
            ip = inst->target;
            break;

          case Opcode::Call:
            result.branches.push_back(
                {BranchKind::DirectCall, ip, inst->target});
            ip = inst->target;
            break;

          case Opcode::JmpInd:
          case Opcode::CallInd:
          case Opcode::Ret: {
            if (stream.done()) {
                walking = false;
                break;
            }
            const Event &ev = stream.peek();
            if (ev.kind == Event::Kind::Loss)
                break;  // re-anchor at the top of the loop
            if (ev.kind != Event::Kind::Tip || ev.suppressed) {
                desync("expected TIP at indirect branch");
                walking = false;
                break;
            }
            stream.consume();
            BranchKind kind = inst->op == Opcode::JmpInd
                ? BranchKind::IndirectJump
                : inst->op == Opcode::CallInd
                    ? BranchKind::IndirectCall
                    : BranchKind::Return;
            result.branches.push_back({kind, ip, ev.ip});
            ip = ev.ip;
            break;
          }

          case Opcode::Syscall: {
            if (stream.done()) {
                walking = false;
                break;
            }
            // FUP at the syscall, PGD entering the kernel.
            if (stream.peek().kind == Event::Kind::Loss)
                break;  // re-anchor at the top of the loop
            if (stream.peek().kind != Event::Kind::Fup ||
                stream.peek().ip != ip) {
                desync("expected FUP at syscall");
                walking = false;
                break;
            }
            stream.consume();
            if (stream.done()) {
                desync("expected TIP.PGD after syscall FUP");
                walking = false;
                break;
            }
            if (stream.peek().kind == Event::Kind::Loss)
                break;  // gap swallowed the PGD; re-anchor above
            if (stream.peek().kind != Event::Kind::Pgd) {
                desync("expected TIP.PGD after syscall FUP");
                walking = false;
                break;
            }
            stream.consume();
            result.branches.push_back(
                {BranchKind::SyscallEntry, ip, 0});
            if (stream.done()) {
                walking = false;   // trace ends inside the kernel
                break;
            }
            const Event &resume = stream.peek();
            if (resume.kind == Event::Kind::Loss)
                break;  // SyscallExit unobserved; re-anchor above
            if (resume.kind != Event::Kind::Pge) {
                desync("expected TIP.PGE resuming from syscall");
                walking = false;
                break;
            }
            stream.consume();
            result.branches.push_back(
                {BranchKind::SyscallExit, ip, resume.ip});
            ip = resume.ip;
            break;
          }

          case Opcode::Halt:
            walking = false;
            break;

          default:
            ip = next;
            break;
        }
    }

    if (account) {
        uint64_t tips = 0;
        for (const auto &branch : result.branches) {
            tips += branch.kind == BranchKind::IndirectJump ||
                    branch.kind == BranchKind::IndirectCall ||
                    branch.kind == BranchKind::Return;
        }
        account->decode +=
            static_cast<double>(result.instructionsWalked) *
                cpu::cost::sw_full_decode_per_inst +
            static_cast<double>(result.branches.size()) *
                cpu::cost::sw_full_decode_per_branch +
            static_cast<double>(tips) *
                cpu::cost::sw_full_decode_per_tip;
    }
    if (telemetry) {
        telemetry->completeSpan(telemetry::SpanKind::FullDecode, cr3,
                                0, span_begin, telemetry->now(), 0,
                                result.instructionsWalked,
                                result.branches.size());
    }
    return result;
}

} // namespace ref

// --- comparison ----------------------------------------------------------

/** Which of the three disagreement places an input set reached. */
struct Coverage
{
    /** Decodes whose packet layer kept outcomes ahead of a loss. */
    size_t preLossOutcomes = 0;
    /** Whole-buffer decodes with steps before the first PSB. */
    size_t unsyncedSteps = 0;
    /** Windows anchored right after an OVF. */
    size_t preAnchorOverflows = 0;
};

/** True when the pool holds outcomes that precede a loss. */
bool
keepsPreLossOutcomes(const decode::FastDecodeResult &flow)
{
    size_t end = 0;
    for (const auto &step : flow.steps) {
        if (step.lossBefore && step.tntOffset > end)
            return true;
        end = step.tntOffset + step.tntLength;
    }
    return flow.lossAtEnd && flow.trailingOffset > end;
}

void
expectSameFlow(const FullDecodeResult &got, const FullDecodeResult &want,
               uint64_t extra_overflows)
{
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.startIp, want.startIp);
    EXPECT_EQ(got.instructionsWalked, want.instructionsWalked);
    EXPECT_EQ(got.lossBranchIndices, want.lossBranchIndices);
    EXPECT_EQ(got.overflows, want.overflows + extra_overflows);
    EXPECT_EQ(got.resyncs, want.resyncs);
    EXPECT_EQ(got.bytesSkipped, want.bytesSkipped);
    ASSERT_EQ(got.branches.size(), want.branches.size());
    for (size_t i = 0; i < want.branches.size(); ++i) {
        SCOPED_TRACE("branch " + std::to_string(i));
        EXPECT_EQ(got.branches[i].kind, want.branches[i].kind);
        EXPECT_EQ(got.branches[i].source, want.branches[i].source);
        EXPECT_EQ(got.branches[i].target, want.branches[i].target);
    }
}

/**
 * Asserts the walk of `window`, a cold start on `bytes`, reproduces the
 * reference fed the bytes from the window's sync point on, with the
 * same modeled charge. Returns the walk.
 */
FullDecodeResult
expectSameWindowWalk(const isa::Program &program,
                     const std::vector<uint8_t> &bytes,
                     const decode::FastDecodeResult &window,
                     Coverage &coverage)
{
    const size_t start = static_cast<size_t>(window.startOffset);
    cpu::CycleAccount got_cost;
    cpu::CycleAccount want_cost;
    const auto want = ref::decodeInstructionFlow(
        program, bytes.data() + start, bytes.size() - start, &want_cost,
        nullptr, 0);
    auto got = decode::decodeInstructionFlow(program, window, &got_cost);
    const bool ovf_before = start >= 2 && bytes[start - 2] == 0x02 &&
        bytes[start - 1] == 0xF3;
    expectSameFlow(got, want, ovf_before ? 1 : 0);
    EXPECT_DOUBLE_EQ(got_cost.decode, want_cost.decode);
    coverage.preAnchorOverflows += ovf_before;
    coverage.preLossOutcomes += keepsPreLossOutcomes(window);
    return got;
}

/**
 * Asserts the walk reproduces the reference on `bytes`, whole (from
 * the oldest sync point, or from byte 0 when no PSB is left) and as
 * the slow path's anchored window (100 TIPs), each a cold start on the
 * bytes standing alone.
 */
void
expectSameDecode(const isa::Program &program,
                 const std::vector<uint8_t> &bytes, Coverage &coverage)
{
    SCOPED_TRACE(std::to_string(bytes.size()) + " bytes");
    decode::TraceCursor cursor;
    const trace::StreamView view{bytes};
    {
        SCOPED_TRACE("whole buffer");
        const auto &whole = cursor.decode(view, SIZE_MAX);
        coverage.unsyncedSteps += whole.unsyncedSteps > 0;
        expectSameWindowWalk(program, bytes, whole, coverage);
    }
    {
        SCOPED_TRACE("anchored window");
        expectSameWindowWalk(program, bytes, cursor.decode(view, 100),
                             coverage);
    }
}

// --- inputs ----------------------------------------------------------------

/** The FullDecodeProperty server for `seed`. */
workloads::ServerSpec
propertySpec(uint64_t seed)
{
    workloads::ServerSpec spec;
    spec.name = "prop";
    spec.seed = seed;
    spec.numHandlers = 4;
    spec.numParserStates = 3;
    spec.numFillerFuncs = 20;
    spec.fillerTableSlots = 6;
    spec.workPerRequest = 40;
    return spec;
}

/** That server's whole trace, run to completion. */
struct ServerTrace
{
    workloads::SyntheticApp app;
    std::vector<uint8_t> bytes;
};

ServerTrace
propertyTrace(uint64_t seed)
{
    const auto spec = propertySpec(seed);
    ServerTrace out{workloads::buildServerApp(spec), {}};

    trace::Topa topa({1 << 22});
    trace::IptEncoder encoder(trace::IptConfig{}, topa);
    cpu::Cpu cpu(out.app.program);
    cpu::BasicKernel kernel;
    kernel.setInput(workloads::makeBenignStream(
        6, seed + 100, spec.numHandlers, spec.numParserStates));
    cpu.setSyscallHandler(&kernel);
    cpu.addTraceSink(&encoder);
    EXPECT_EQ(cpu.run(5'000'000), cpu::Cpu::Stop::Halted);
    encoder.flushTnt();
    out.bytes = topa.snapshot();
    return out;
}

/**
 * Runs `requests` requests of the `spec` server into a ring of
 * `regions` and returns snapshots taken every `every` branches plus
 * the final one. With `pmi_latency` set, the ring services its PMI
 * late (a DelayedPmi episode) and `episodes` receives the overflow
 * count.
 */
std::vector<std::vector<uint8_t>>
sampleRing(const workloads::ServerSpec &spec, const isa::Program &program,
           std::vector<size_t> regions, uint32_t psb_period,
           size_t requests, size_t every, size_t pmi_latency = 0,
           uint64_t *episodes = nullptr)
{
    trace::Topa topa(std::move(regions));
    if (pmi_latency) {
        trace::FaultInjector faults(5);
        faults.delayPmi(topa, pmi_latency);
    }
    trace::IptConfig config;
    config.psbPeriodBytes = psb_period;
    trace::IptEncoder encoder(config, topa);
    RingSampler sampler(topa, every);
    cpu::Cpu cpu(program);
    cpu::BasicKernel kernel;
    kernel.setInput(workloads::makeBenignStream(
        requests, 7, spec.numHandlers, spec.numParserStates));
    cpu.setSyscallHandler(&kernel);
    cpu.addTraceSink(&encoder);
    cpu.addTraceSink(&sampler);
    EXPECT_EQ(cpu.run(5'000'000), cpu::Cpu::Stop::Halted);
    encoder.flushTnt();
    EXPECT_TRUE(topa.wrapped());
    const auto last = topa.view();
    sampler.samples.emplace_back(last.begin(), last.end());
    if (episodes)
        *episodes = topa.overflowEpisodes();
    return sampler.samples;
}

// --- the oracle --------------------------------------------------------------

class FullDecodeOracle : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FullDecodeOracle, PropertyTraceMatchesFlatteningDecoder)
{
    const ServerTrace trace = propertyTrace(GetParam());
    ASSERT_FALSE(trace.bytes.empty());
    Coverage coverage;
    expectSameDecode(trace.app.program, trace.bytes, coverage);
    // The clean trace walks end to end, so the comparison saw real
    // work.
    decode::TraceCursor cursor;
    const auto full = decode::decodeInstructionFlow(
        trace.app.program,
        cursor.decode(trace::StreamView{trace.bytes}, SIZE_MAX));
    ASSERT_TRUE(full.ok()) << full.error;
    EXPECT_GT(full.branches.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullDecodeOracle,
                         ::testing::Values(3, 17, 23, 51, 77));

TEST(FullDecodeOracleFaults, EveryBufferFaultModeMatches)
{
    // DelayedPmi has no buffer form; its episode is the test below.
    const trace::FaultMode modes[] = {
        trace::FaultMode::CorruptBytes, trace::FaultMode::FlipBits,
        trace::FaultMode::TruncateTail, trace::FaultMode::DropRegion};
    const ServerTrace trace = propertyTrace(3);
    Coverage coverage;
    uint64_t seed = 1;
    for (trace::FaultMode mode : modes) {
        SCOPED_TRACE(trace::faultModeName(mode));
        for (int trial = 0; trial < 24; ++trial) {
            SCOPED_TRACE("trial " + std::to_string(trial));
            std::vector<uint8_t> bytes = trace.bytes;
            trace::FaultInjector faults(seed++);
            trace::FaultSpec spec;
            spec.mode = mode;
            spec.count = 1 + static_cast<uint32_t>(trial % 4) * 4;
            spec.regionBytes = 256u << (trial % 4);
            faults.apply(spec, bytes);
            expectSameDecode(trace.app.program, bytes, coverage);
        }
    }
    // Resyncs after kept outcomes: the walk replays them first.
    EXPECT_GT(coverage.preLossOutcomes, 0u);
}

TEST(FullDecodeOracleRings, WrappedRingsMatch)
{
    const auto spec = stormSpec();
    const auto app = workloads::buildServerApp(spec);
    Coverage coverage;
    for (uint32_t psb_period : {32u, 128u, 1024u}) {
        SCOPED_TRACE("psb period " + std::to_string(psb_period));
        // 768 bytes holds no PSB at period 1024 once wrapped; 4096
        // holds several at every period.
        for (size_t ring : {size_t{768}, size_t{4096}}) {
            SCOPED_TRACE("ring " + std::to_string(ring));
            for (const auto &bytes :
                 sampleRing(spec, app.program, {ring / 2, ring - ring / 2},
                            psb_period, 60, 1013)) {
                expectSameDecode(app.program, bytes, coverage);
                // The bytes in front of its first PSB hold none: at
                // their stream's origin they are decoded from byte 0.
                const size_t psb =
                    trace::findNextPsb(bytes.data(), bytes.size(), 0);
                if (psb != SIZE_MAX && psb > 0)
                    expectSameDecode(app.program,
                                     {bytes.begin(), bytes.begin() +
                                          static_cast<ptrdiff_t>(psb)},
                                     coverage);
            }
        }
    }
    // A PSB-free buffer at its stream's origin: steps before any PSB.
    EXPECT_GT(coverage.unsyncedSteps, 0u);
}

TEST(FullDecodeOracleRings, DelayedPmiEpisodesMatch)
{
    // The property server runs long conditional stretches, so TNT
    // packets often precede the packets an episode drops.
    const auto spec = propertySpec(3);
    const auto app = workloads::buildServerApp(spec);
    Coverage coverage;
    for (size_t latency : {size_t{96}, size_t{512}}) {
        SCOPED_TRACE("pmi latency " + std::to_string(latency));
        uint64_t episodes = 0;
        for (const auto &bytes :
             sampleRing(spec, app.program, {1024, 1024}, 256, 40, 397,
                        latency, &episodes))
            expectSameDecode(app.program, bytes, coverage);
        EXPECT_GT(episodes, 0u);
    }
    // The overflow resync puts OVF right before a PSB, and windows
    // anchor there; outcomes before an OVF are kept for the walk.
    EXPECT_GT(coverage.preAnchorOverflows, 0u);
    EXPECT_GT(coverage.preLossOutcomes, 0u);
}

// --- the run walk's edges ---------------------------------------------------

/**
 * main: run A (three instructions, then a Jcc to `next`, which follows
 * it), run B (three nops and an add, then a Ret). `stop` is a nop and
 * a Halt, which ends its run although `tail` follows it. `tail`, the
 * module's last function, is a run of four instructions with no
 * control flow at all: its fall-through leaves mapped code.
 */
isa::Program
runProgram()
{
    using namespace isa;
    ModuleBuilder mod("m", ModuleKind::Executable);
    mod.function("main");
    mod.movImm(1, 0);
    mod.movImm(2, 0);
    mod.cmpImm(1, 0);
    mod.jcc(Cond::Eq, "next");
    mod.label("next");
    mod.nop();
    mod.nop();
    mod.nop();
    mod.aluImm(AluOp::Add, 1, 1);
    mod.ret();
    mod.function("stop");
    mod.nop();
    mod.halt();
    mod.function("tail");
    mod.nop();
    mod.movImm(3, 1);
    mod.aluImm(AluOp::Add, 3, 1);
    mod.nop();
    return Loader().addExecutable(mod.build()).link();
}

/** Builds a trace packet by packet. */
struct TraceBytes
{
    std::vector<uint8_t> bytes;
    uint64_t lastIp = 0;

    TraceBytes &psb()
    {
        trace::appendPsb(bytes);
        lastIp = 0;
        return *this;
    }
    TraceBytes &tip(uint8_t op, uint64_t ip)
    {
        trace::appendTipClass(bytes, op, ip, lastIp);
        return *this;
    }
    TraceBytes &tnt(uint8_t bits, int count)
    {
        trace::appendTnt(bytes, bits, count);
        return *this;
    }
    TraceBytes &ovf()
    {
        trace::appendOvf(bytes);
        return *this;
    }
};

/** Walks `bytes` whole and checks the reference agrees, charge
 *  included. */
FullDecodeResult
walkBoth(const isa::Program &program, const std::vector<uint8_t> &bytes)
{
    decode::TraceCursor cursor;
    Coverage unused;
    return expectSameWindowWalk(
        program, bytes, cursor.decode(trace::StreamView{bytes}, SIZE_MAX),
        unused);
}

TEST(FullDecodeOracleRuns, RunTableEndsAtControlFlowOrMappedCode)
{
    const isa::Program program = runProgram();
    const uint32_t main = program.instIndexAt(program.funcAddr("m", "main"));
    const uint32_t tail = program.instIndexAt(program.funcAddr("m", "tail"));
    EXPECT_EQ(program.runEnd(main), main + 3);        // the Jcc
    EXPECT_EQ(program.runEnd(main + 3), main + 3);
    EXPECT_EQ(program.runEnd(main + 4), main + 8);    // the Ret
    const uint32_t stop = program.instIndexAt(program.funcAddr("m", "stop"));
    EXPECT_EQ(program.runEnd(stop), stop + 1);        // the Halt
    EXPECT_EQ(stop + 2, tail);
    EXPECT_EQ(program.runEnd(tail), tail + 3);        // last mapped
    EXPECT_EQ(program.runEnd(tail + 2), tail + 3);
    EXPECT_EQ(program.instLinks(tail + 3).next, isa::no_inst);
}

TEST(FullDecodeOracleRuns, RunLeavingMappedCodeIsBadFlow)
{
    const isa::Program program = runProgram();
    const uint64_t tail = program.funcAddr("m", "tail");
    const uint64_t second = tail + isa::instSize(isa::Opcode::Nop);
    // Entered mid-run, at the run's start, and between two
    // instructions; a trailing outcome keeps the walk going.
    const struct
    {
        uint64_t entry;
        uint64_t walked;
    } cases[] = {{second, 3}, {tail, 4}, {second + 1, 0}};
    for (const auto &c : cases) {
        SCOPED_TRACE("entry " + std::to_string(c.entry - tail));
        TraceBytes trace;
        trace.psb().tip(trace::opcode::tip_pge, c.entry).tnt(1, 1);
        const auto got = walkBoth(program, trace.bytes);
        EXPECT_EQ(got.status, FullDecodeResult::Status::BadFlow);
        EXPECT_EQ(got.instructionsWalked, c.walked);
    }
}

TEST(FullDecodeOracleRuns, HaltEndsTheWalkMidFlatOrder)
{
    const isa::Program program = runProgram();
    TraceBytes trace;
    trace.psb().tip(trace::opcode::tip_pge, program.funcAddr("m", "stop"));
    trace.tnt(1, 1);
    const auto got = walkBoth(program, trace.bytes);
    EXPECT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.instructionsWalked, 2u);
}

TEST(FullDecodeOracleRuns, BudgetCrossedMidRunStopsAtTheBudget)
{
    // A direct loop of 999 instructions (998 nops and a jmp back) that
    // no packet ever leaves: the 50 M instruction budget falls inside
    // a run, which the run walk must stop at exactly.
    isa::ModuleBuilder mod("m", isa::ModuleKind::Executable);
    mod.function("main");
    mod.label("top");
    for (int i = 0; i < 998; ++i)
        mod.nop();
    mod.jmp("top");
    const isa::Program program =
        isa::Loader().addExecutable(mod.build()).link();
    ASSERT_NE(50'000'000 % 999, 0);
    TraceBytes trace;
    trace.psb().tip(trace::opcode::tip_pge, program.funcAddr("m", "main"));
    trace.tnt(1, 1);
    const auto got = walkBoth(program, trace.bytes);
    EXPECT_EQ(got.status, FullDecodeResult::Status::Desync);
    EXPECT_EQ(got.instructionsWalked, 50'000'000u);
    EXPECT_EQ(got.branches.size(), 50'000'000u / 999);
}

TEST(FullDecodeOracleRuns, PauseAtRunStartCountsOnlyThatInstruction)
{
    const isa::Program program = runProgram();
    const uint64_t main = program.funcAddr("m", "main");
    const uint64_t next = main + 6 + 6 + 4 + 2;   // past run A
    ASSERT_EQ(program.instIndexAt(next),
              program.instIndexAt(main) + 4);

    // Run A, then a PGD at run B's first nop, then ...
    const auto paused = [&] {
        TraceBytes trace;
        trace.psb().tip(trace::opcode::tip_pge, main).tnt(1, 1);
        trace.tip(trace::opcode::tip_pgd, next);
        return trace;
    };
    {
        SCOPED_TRACE("... the trace ends");
        const auto got = walkBoth(program, paused().bytes);
        EXPECT_TRUE(got.ok()) << got.error;
        EXPECT_EQ(got.instructionsWalked, 5u);
        EXPECT_EQ(got.branches.size(), 1u);
    }
    {
        SCOPED_TRACE("... the PGE resumes there, and the trace ends");
        auto trace = paused();
        trace.tip(trace::opcode::tip_pge, next);
        const auto got = walkBoth(program, trace.bytes);
        EXPECT_TRUE(got.ok()) << got.error;
        EXPECT_EQ(got.instructionsWalked, 5u);
        EXPECT_EQ(got.branches.size(), 1u);
    }
    {
        SCOPED_TRACE("... a loss, and the trace ends in it");
        auto trace = paused();
        trace.ovf();
        const auto got = walkBoth(program, trace.bytes);
        EXPECT_TRUE(got.ok()) << got.error;
        EXPECT_EQ(got.instructionsWalked, 5u);
        EXPECT_EQ(got.lossBranchIndices,
                  std::vector<uint64_t>({1}));
    }
    {
        SCOPED_TRACE("... a loss, then run A again");
        auto trace = paused();
        trace.ovf().psb().tip(trace::opcode::tip_pge, main).tnt(0, 1);
        const auto got = walkBoth(program, trace.bytes);
        EXPECT_TRUE(got.ok()) << got.error;
        EXPECT_EQ(got.instructionsWalked, 9u);
        EXPECT_EQ(got.lossBranchIndices,
                  std::vector<uint64_t>({1}));
        EXPECT_EQ(got.branches.size(), 2u);
    }
    {
        SCOPED_TRACE("... a PGE elsewhere: a desync at the pause");
        auto trace = paused();
        trace.tip(trace::opcode::tip_pge, main).tnt(1, 1);
        const auto got = walkBoth(program, trace.bytes);
        EXPECT_EQ(got.status, FullDecodeResult::Status::Desync);
        EXPECT_EQ(got.instructionsWalked, 5u);
    }
}

} // namespace

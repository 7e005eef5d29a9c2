/**
 * @file
 * Unit tests for the IPT hardware model: ToPA output, packet
 * generation rules (Table 3), TNT batching, PSB cadence, CR3 and IP
 * filtering transitions, syscall far-transfer sequences; and byte pins
 * of whole encoded runs, which a change to the encoder or the ToPA
 * that claims to move no byte must leave as they are.
 */

#include <gtest/gtest.h>

#include <array>
#include <span>

#include "cpu/basic_kernel.hh"
#include "cpu/cpu.hh"
#include "cpu/events.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "trace/ipt.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::trace;
using cpu::BranchEvent;
using cpu::BranchKind;

BranchEvent
event(BranchKind kind, uint64_t source, uint64_t target,
      uint64_t cr3 = 0)
{
    return {kind, source, target, cr3};
}

std::vector<Packet>
parseAll(const Topa &topa)
{
    auto bytes = topa.snapshot();
    PacketParser parser(bytes);
    std::vector<Packet> packets;
    Packet pkt;
    while (parser.next(pkt))
        if (pkt.kind != PacketKind::Pad)
            packets.push_back(pkt);
    EXPECT_FALSE(parser.bad());
    return packets;
}

// --- ToPA ---------------------------------------------------------------------

TEST(Topa, WritesAndSnapshotsInOrder)
{
    Topa topa({8, 8});
    const uint8_t data[] = {1, 2, 3, 4, 5};
    topa.write(data, 5);
    EXPECT_EQ(topa.totalWritten(), 5u);
    EXPECT_FALSE(topa.wrapped());
    auto snap = topa.snapshot();
    ASSERT_EQ(snap.size(), 5u);
    EXPECT_EQ(snap[0], 1);
    EXPECT_EQ(snap[4], 5);
}

TEST(Topa, WrapKeepsNewestBytesOldestFirst)
{
    Topa topa({4, 4});
    std::vector<uint8_t> data(10);
    for (int i = 0; i < 10; ++i)
        data[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
    topa.write(data.data(), data.size());
    EXPECT_TRUE(topa.wrapped());
    auto snap = topa.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    // Oldest surviving byte is 2 (bytes 0,1 overwritten).
    EXPECT_EQ(snap.front(), 2);
    EXPECT_EQ(snap.back(), 9);
}

TEST(Topa, PmiFiresOnBufferFull)
{
    Topa topa({4});
    int pmis = 0;
    topa.setPmiCallback([&] { ++pmis; });
    std::vector<uint8_t> data(9, 0xAA);
    topa.write(data.data(), data.size());
    EXPECT_EQ(pmis, 2);     // filled twice (9 bytes over 4-byte buffer)
}

TEST(Topa, RejectsEmptyRegionList)
{
    EXPECT_THROW(Topa({}), SimError);
}

// --- PMI service latency / overflow episodes --------------------------------

TEST(Topa, InstantServiceNeverOverflows)
{
    Topa topa({4});
    int pmis = 0;
    topa.setPmiCallback([&] { ++pmis; });
    std::vector<uint8_t> data(9, 0xAA);
    topa.write(data.data(), data.size());
    EXPECT_EQ(pmis, 2);
    EXPECT_FALSE(topa.inOverflow());
    EXPECT_EQ(topa.overflowEpisodes(), 0u);
    EXPECT_EQ(topa.droppedBytes(), 0u);
    EXPECT_FALSE(topa.consumeOvfResyncPending());
}

TEST(Topa, DelayedServiceDropsPacketsThenFiresPmi)
{
    Topa topa({8});
    int pmis = 0;
    topa.setPmiCallback([&] { ++pmis; });
    topa.setPmiServiceLatency(16);

    std::vector<uint8_t> fill(8, 0x11);
    topa.write(fill.data(), fill.size());   // exactly fills: wrap
    EXPECT_TRUE(topa.inOverflow());
    EXPECT_EQ(pmis, 0);     // service still pending

    std::vector<uint8_t> lost(10, 0x22);
    topa.write(lost.data(), lost.size());   // dropped wholesale
    EXPECT_TRUE(topa.inOverflow());
    EXPECT_EQ(pmis, 0);
    EXPECT_EQ(topa.droppedBytes(), 10u);

    std::vector<uint8_t> last(6, 0x33);
    topa.write(last.data(), last.size());   // exhausts the latency
    EXPECT_FALSE(topa.inOverflow());
    EXPECT_EQ(pmis, 1);     // handler finally ran
    EXPECT_EQ(topa.overflowEpisodes(), 1u);
    EXPECT_EQ(topa.droppedBytes(), 16u);
    EXPECT_TRUE(topa.consumeOvfResyncPending());
    EXPECT_FALSE(topa.consumeOvfResyncPending());    // one-shot

    // The buffer still holds what was captured at the wrap: none of
    // the dropped bytes leaked into storage.
    auto snap = topa.snapshot();
    for (uint8_t byte : snap)
        EXPECT_EQ(byte, 0x11);
}

TEST(Topa, MidPacketWrapDropsPacketWholeAndPadsTail)
{
    Topa topa({8});
    topa.setPmiServiceLatency(8);
    // A 12-byte packet cannot complete before the wrap: the whole
    // packet is dropped, and the 8 bytes it had already landed are
    // padded out (0x00) so no snapshot ever sees a torn prefix. Only
    // the 4 never-written bytes count against the latency budget.
    std::vector<uint8_t> data(12, 0x55);
    topa.write(data.data(), data.size());
    EXPECT_TRUE(topa.inOverflow());
    EXPECT_EQ(topa.totalWritten(), 8u);
    EXPECT_EQ(topa.droppedBytes(), 12u);
    EXPECT_EQ(topa.overflowEpisodes(), 0u);
    for (uint8_t byte : topa.snapshot())
        EXPECT_EQ(byte, 0x00);
}

TEST(Topa, PacketEndingExactlyAtWrapIsKept)
{
    Topa topa({8});
    topa.setPmiServiceLatency(8);
    // The packet completes exactly as the region fills: nothing is
    // torn, so nothing is padded away.
    std::vector<uint8_t> data(8, 0x55);
    topa.write(data.data(), data.size());
    EXPECT_TRUE(topa.inOverflow());
    EXPECT_EQ(topa.droppedBytes(), 0u);
    for (uint8_t byte : topa.snapshot())
        EXPECT_EQ(byte, 0x55);
}

TEST(Topa, ClearResetsOverflowState)
{
    Topa topa({4});
    topa.setPmiServiceLatency(8);
    std::vector<uint8_t> data(6, 0xAA);
    topa.write(data.data(), data.size());
    EXPECT_TRUE(topa.inOverflow());
    topa.clear();
    EXPECT_FALSE(topa.inOverflow());
    EXPECT_EQ(topa.overflowEpisodes(), 0u);
    EXPECT_EQ(topa.droppedBytes(), 0u);
    EXPECT_FALSE(topa.consumeOvfResyncPending());
}

// --- packet generation rules -----------------------------------------------

TEST(IptEncoder, DirectTransfersProduceNoPackets)
{
    Topa topa({4096});
    IptConfig config;
    config.psbPeriodBytes = 1 << 30;
    IptEncoder encoder(config, topa);
    // First event establishes context (PGE); then direct transfers.
    encoder.onBranch(event(BranchKind::IndirectJump, 0x400000,
                           0x400100));
    const uint64_t before = encoder.stats().bytes;
    encoder.onBranch(event(BranchKind::DirectJump, 0x400100, 0x400200));
    encoder.onBranch(event(BranchKind::DirectCall, 0x400200, 0x400300));
    EXPECT_EQ(encoder.stats().bytes, before);
}

TEST(IptEncoder, SixTntBitsPerByte)
{
    Topa topa({4096});
    IptConfig config;
    config.psbPeriodBytes = 1 << 30;
    IptEncoder encoder(config, topa);
    encoder.onBranch(event(BranchKind::IndirectJump, 0x400000,
                           0x400100));
    for (int i = 0; i < 12; ++i)
        encoder.onBranch(event(
            i % 2 ? BranchKind::CondTaken : BranchKind::CondNotTaken,
            0x400100, 0x400104));
    encoder.flushTnt();
    EXPECT_EQ(encoder.stats().tntPackets, 2u);   // 12 bits = 2 bytes
    EXPECT_EQ(encoder.stats().tntBits, 12u);

    auto packets = parseAll(topa);
    int tnt_bits = 0;
    for (const auto &pkt : packets) {
        if (pkt.kind == PacketKind::Tnt) {
            EXPECT_EQ(pkt.tntCount, 6);
            // Alternating pattern, oldest bit first: 0,1,0,1,...
            EXPECT_EQ(pkt.tntBits, 0b101010);
            tnt_bits += pkt.tntCount;
        }
    }
    EXPECT_EQ(tnt_bits, 12);
}

TEST(IptEncoder, TipFlushesPendingTnt)
{
    Topa topa({4096});
    IptConfig config;
    config.psbPeriodBytes = 1 << 30;
    IptEncoder encoder(config, topa);
    encoder.onBranch(event(BranchKind::IndirectJump, 0x400000,
                           0x400100));
    encoder.onBranch(event(BranchKind::CondTaken, 0x400100, 0x400108));
    encoder.onBranch(event(BranchKind::Return, 0x400108, 0x400200));

    auto packets = parseAll(topa);
    // PSB, PSBEND, PGE, TNT, TIP in that order.
    ASSERT_GE(packets.size(), 5u);
    EXPECT_EQ(packets[2].kind, PacketKind::TipPge);
    EXPECT_EQ(packets[3].kind, PacketKind::Tnt);
    EXPECT_EQ(packets[4].kind, PacketKind::Tip);
    EXPECT_EQ(packets[4].ip, 0x400200u);
}

TEST(IptEncoder, PsbEmittedPeriodically)
{
    Topa topa({1 << 16});
    IptConfig config;
    config.psbPeriodBytes = 64;
    IptEncoder encoder(config, topa);
    uint64_t ip = 0x400000;
    for (int i = 0; i < 200; ++i) {
        encoder.onBranch(event(BranchKind::IndirectCall, ip, ip + 64));
        ip += 64;
    }
    EXPECT_GT(encoder.stats().psbPackets, 4u);
    auto offsets =
        findPsbOffsets(topa.snapshot().data(), topa.totalWritten());
    EXPECT_EQ(offsets.size(), encoder.stats().psbPackets);
}

TEST(IptEncoder, SyscallEmitsFupPgdThenPgeOnResume)
{
    Topa topa({4096});
    IptConfig config;
    config.psbPeriodBytes = 1 << 30;
    IptEncoder encoder(config, topa);
    encoder.onBranch(event(BranchKind::IndirectJump, 0x400000,
                           0x400100));
    encoder.onBranch(event(BranchKind::SyscallEntry, 0x400100, 0));
    EXPECT_FALSE(encoder.contextOn());
    encoder.onBranch(event(BranchKind::SyscallExit, 0x400100,
                           0x400102));
    EXPECT_TRUE(encoder.contextOn());

    auto packets = parseAll(topa);
    // ..., FUP(syscall), PGD(suppressed), PGE(resume)
    ASSERT_GE(packets.size(), 6u);
    const auto &fup = packets[packets.size() - 3];
    const auto &pgd = packets[packets.size() - 2];
    const auto &pge = packets[packets.size() - 1];
    EXPECT_EQ(fup.kind, PacketKind::Fup);
    EXPECT_EQ(fup.ip, 0x400100u);
    EXPECT_EQ(pgd.kind, PacketKind::TipPgd);
    EXPECT_TRUE(pgd.ipSuppressed);
    EXPECT_EQ(pge.kind, PacketKind::TipPge);
    EXPECT_EQ(pge.ip, 0x400102u);
}

TEST(IptEncoder, OverflowEmitsOvfThenPsbResync)
{
    Topa topa({256});
    topa.setPmiServiceLatency(64);
    IptConfig config;
    config.psbPeriodBytes = 1 << 30;
    IptEncoder encoder(config, topa);

    uint64_t ip = 0x400000;
    while (topa.overflowEpisodes() == 0) {
        encoder.onBranch(event(BranchKind::IndirectCall, ip,
                               ip + 0x40));
        ip += 0x40;
        ASSERT_LT(ip, 0x500000u);   // overflow must happen eventually
    }
    // The episode just ended: the resync is owed but not yet emitted.
    EXPECT_EQ(encoder.stats().ovfPackets, 0u);

    encoder.onBranch(event(BranchKind::IndirectCall, ip, ip + 0x40));
    EXPECT_EQ(encoder.stats().ovfPackets, 1u);

    // The wire holds OVF immediately followed by a full validated
    // PSB — the decoder's resync anchor.
    auto snap = topa.snapshot();
    bool found = false;
    for (size_t i = 0; i + 2 <= snap.size(); ++i) {
        if (snap[i] == 0x02 && snap[i + 1] == 0xF3 &&
            findNextPsb(snap.data(), snap.size(), i) == i + 2) {
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found);
    // Context dropped at the loss: the post-resync branch re-entered
    // via TIP.PGE.
    EXPECT_TRUE(encoder.contextOn());
    EXPECT_GE(encoder.stats().pgePackets, 2u);
}

// --- filtering -----------------------------------------------------------------

TEST(IptEncoder, Cr3FilterSuppressesAndMarksTransitions)
{
    Topa topa({4096});
    IptConfig config;
    config.cr3Filter = true;
    config.cr3Match = 0xAA;
    config.psbPeriodBytes = 1 << 30;
    IptEncoder encoder(config, topa);

    // Matching process: traced.
    encoder.onBranch(event(BranchKind::IndirectJump, 0x400000,
                           0x400100, 0xAA));
    encoder.onBranch(event(BranchKind::Return, 0x400100, 0x400200,
                           0xAA));
    // Other process: suppressed, but a PGD marks the exit.
    encoder.onBranch(event(BranchKind::IndirectJump, 0x500000,
                           0x500100, 0xBB));
    encoder.onBranch(event(BranchKind::Return, 0x500100, 0x500200,
                           0xBB));
    // Back to ours: PGE then normal packets.
    encoder.onBranch(event(BranchKind::Return, 0x400200, 0x400300,
                           0xAA));

    auto packets = parseAll(topa);
    std::vector<PacketKind> kinds;
    for (const auto &pkt : packets)
        kinds.push_back(pkt.kind);
    // PSB PSBEND PGE TIP PGD PGE TIP... exact sequence:
    ASSERT_GE(kinds.size(), 6u);
    EXPECT_EQ(kinds[2], PacketKind::TipPge);
    EXPECT_EQ(kinds[3], PacketKind::Tip);       // first return
    EXPECT_EQ(kinds[4], PacketKind::TipPgd);    // other process ran
    EXPECT_EQ(kinds[5], PacketKind::TipPge);    // back; subsumes ret
    // No packet carries the foreign process's addresses.
    for (const auto &pkt : packets) {
        if (!pkt.ipSuppressed) {
            EXPECT_LT(pkt.ip, 0x500000u);
        }
    }
}

TEST(IptEncoder, IpRangeFilterRestrictsSources)
{
    Topa topa({4096});
    IptConfig config;
    config.ipRanges.push_back({0x400000, 0x500000});
    config.psbPeriodBytes = 1 << 30;
    IptEncoder encoder(config, topa);
    encoder.onBranch(event(BranchKind::IndirectJump, 0x400010,
                           0x400100));
    const uint64_t tips_in = encoder.stats().tipPackets;
    encoder.onBranch(event(BranchKind::IndirectJump, 0x700000,
                           0x700100));
    EXPECT_EQ(encoder.stats().tipPackets, tips_in);  // filtered out
}

TEST(IptEncoder, ChargesTraceCycles)
{
    cpu::CycleAccount account;
    Topa topa({4096});
    IptEncoder encoder(IptConfig{}, topa, &account);
    encoder.onBranch(event(BranchKind::IndirectJump, 0x400000,
                           0x400100));
    EXPECT_GT(account.trace, 0.0);
    EXPECT_DOUBLE_EQ(account.trace,
                     static_cast<double>(encoder.stats().bytes) *
                         cpu::cost::ipt_trace_per_byte);
}

// --- byte pins of whole encoded runs ----------------------------------------

/** FNV-1a over `bytes`, continued from `hash`. */
uint64_t
fnv1a(std::span<const uint8_t> bytes,
      uint64_t hash = 0xcbf29ce484222325ULL)
{
    for (const uint8_t byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * What a ring pins: the stream's size (Topa::totalWritten), the FNV-1a
 * digest of every byte in stream order, the IptStats counters (tnt
 * packets, tnt bits, tip, pge, pgd, fup, psb, ovf, bytes) and the
 * overflow accounting (episodes, dropped bytes).
 */
using RingPin = std::array<uint64_t, 13>;

/**
 * A ToPA whose whole stream is digested: the PMI folds in each lap as
 * it completes (at the PMI the ring holds exactly that lap), and pin()
 * folds in the bytes of the lap in progress.
 */
class DigestedRing
{
  public:
    explicit DigestedRing(std::vector<size_t> regions,
                          size_t pmi_latency = 0)
        : topa(std::move(regions))
    {
        topa.setPmiServiceLatency(pmi_latency);
        topa.setPmiCallback([this] {
            _hash = fnv1a(topa.view(), _hash);
            _folded += topa.capacity();
        });
    }

    /** Clears the ring; the digest starts over with the new stream. */
    void
    clear()
    {
        topa.clear();
        _hash = fnv1a({});
        _folded = 0;
    }

    RingPin
    pin(const IptStats &stats) const
    {
        const std::span<const uint8_t> view = topa.view();
        const uint64_t hash =
            fnv1a(view.last(topa.totalWritten() - _folded), _hash);
        return {topa.totalWritten(), hash,
                stats.tntPackets,   stats.tntBits,
                stats.tipPackets,   stats.pgePackets,
                stats.pgdPackets,   stats.fupPackets,
                stats.psbPackets,   stats.ovfPackets,
                stats.bytes,        topa.overflowEpisodes(),
                topa.droppedBytes()};
    }

    Topa topa;

  private:
    uint64_t _hash = fnv1a({});
    uint64_t _folded = 0;
};

/** The production encoder config: CR3 filter on the process. */
IptConfig
productionConfig(uint64_t cr3, uint32_t psb_period = 1024)
{
    IptConfig config;
    config.cr3Filter = true;
    config.cr3Match = cr3;
    config.psbPeriodBytes = psb_period;
    return config;
}

/** A server process under the basic kernel, traced into `encoder`. */
class TracedServer
{
  public:
    TracedServer(const workloads::ServerSpec &spec, uint64_t seed,
                 size_t requests)
        : _app(workloads::buildServerApp(spec)), _cpu(_app.program)
    {
        _kernel.setInput(workloads::makeBenignStream(
            requests, seed, spec.numHandlers, spec.numParserStates));
        _cpu.setSyscallHandler(&_kernel);
    }

    void trace(IptEncoder &encoder) { _cpu.addTraceSink(&encoder); }
    cpu::Cpu::Stop run(uint64_t budget) { return _cpu.run(budget); }
    uint64_t cr3() const { return _app.program.cr3(); }

  private:
    workloads::SyntheticApp _app;
    cpu::Cpu _cpu;
    cpu::BasicKernel _kernel;
};

/** Instruction budget of a pinned run: every server halts first. */
constexpr uint64_t pin_budget = 3'000'000;

/** The inline workloads' endpoint-dense server. */
workloads::ServerSpec
stormSpec()
{
    workloads::ServerSpec spec;
    spec.name = "storm";
    spec.workPerRequest = 1;
    spec.implantVuln = true;
    spec.seed = 21;
    spec.cr3 = 0x2100;
    return spec;
}

/** Encodes one server run under the production config into `ring`. */
RingPin
encodeServer(const workloads::ServerSpec &spec, size_t requests,
             DigestedRing &ring, uint32_t psb_period = 1024)
{
    TracedServer server(spec, 201, requests);
    IptEncoder encoder(productionConfig(server.cr3(), psb_period),
                       ring.topa);
    server.trace(encoder);
    EXPECT_EQ(server.run(pin_budget), cpu::Cpu::Stop::Halted)
        << spec.name;
    encoder.flushTnt();
    return ring.pin(encoder.stats());
}

TEST(IptPins, ProductionServerRings)
{
    // The fleet's ToPA geometry, so every ring wraps and mirrors.
    auto specs = workloads::serverSuite();
    specs.push_back(stormSpec());
    const std::vector<RingPin> pins = {
        {52368, 0x4fcc05909ac0fad5ULL,
         20049, 120083, 10164, 35, 35, 35, 51, 0, 52368, 0, 0},
        {65107, 0x2d85babae26542a4ULL,
         25048, 150089, 12654, 35, 35, 35, 63, 0, 65107, 0, 0},
        {42107, 0x746ee2d04f10a0dfULL,
         16046, 96081, 8146, 35, 35, 35, 41, 0, 42107, 0, 0},
        {58666, 0xfbc2ddb754e95888ULL,
         22547, 135076, 11396, 35, 35, 35, 57, 0, 58666, 0, 0},
        {26158, 0x398c3f0f28907240ULL,
         1118, 2241, 3157, 605, 605, 605, 26, 0, 26158, 0, 0},
    };
    ASSERT_EQ(specs.size(), pins.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        // storm's requests are short: it needs more to wrap the ring.
        const size_t requests = i + 1 < specs.size() ? 10 : 200;
        DigestedRing ring({8192, 8192});
        EXPECT_EQ(encodeServer(specs[i], requests, ring), pins[i])
            << specs[i].name;
        EXPECT_TRUE(ring.topa.wrapped()) << specs[i].name;
    }
}

TEST(IptPins, TrainerRing)
{
    // As the trainer replays a corpus: one 4 MiB ring cleared between
    // inputs (it never wraps), a fresh unfiltered encoder per input.
    const auto spec = workloads::serverSuite()[0];
    DigestedRing ring({1 << 22});
    const std::vector<RingPin> pins = {
        {15816, 0x9d25281f94d87a8eULL,
         6017, 36029, 3059, 14, 14, 14, 16, 0, 15816, 0, 0},
        {15791, 0x8e9740e07e76d483ULL,
         6016, 36030, 3049, 14, 14, 14, 16, 0, 15791, 0, 0},
        {15788, 0x34628209c1f380f4ULL,
         6015, 36022, 3051, 14, 14, 14, 16, 0, 15788, 0, 0},
    };
    for (uint64_t seed = 1; seed <= pins.size(); ++seed) {
        ring.clear();
        TracedServer server(spec, seed, 3);
        IptEncoder encoder(IptConfig{}, ring.topa);
        server.trace(encoder);
        EXPECT_EQ(server.run(pin_budget), cpu::Cpu::Stop::Halted);
        encoder.flushTnt();
        EXPECT_EQ(ring.pin(encoder.stats()), pins[seed - 1])
            << "input " << seed;
        EXPECT_FALSE(ring.topa.wrapped());
    }
}

TEST(IptPins, Psb32Ring)
{
    DigestedRing ring({8192, 8192});
    const RingPin pin =
        encodeServer(workloads::serverSuite()[1], 4, ring, 32);
    EXPECT_EQ(pin, (RingPin{42649, 0x2b35f7ac8feb78dbULL, 10021, 60038,
                            5067, 17, 17, 17, 852, 0, 42649, 0, 0}));
}

TEST(IptPins, OverflowRing)
{
    // A small ring with a slow PMI: the run loses trace in several
    // overflow episodes, each closed by OVF + PSB. A long loss leaves
    // a PSB due when the episode ends; a short one does not, so the
    // next conditional outcome must still wait for the resync.
    const size_t latencies[] = {700, 40};
    const RingPin pins[] = {
        {14868, 0x3c7e7fb5badba8ccULL,
         6420, 38435, 3264, 20, 17, 17, 18, 3, 16968, 3, 2100},
        {16785, 0xc1b60d6d31a9877bULL,
         6420, 38435, 3264, 21, 17, 17, 17, 4, 16949, 4, 169},
    };
    for (size_t i = 0; i < std::size(latencies); ++i) {
        DigestedRing ring({2048, 2048}, latencies[i]);
        const RingPin pin =
            encodeServer(workloads::serverSuite()[2], 4, ring);
        EXPECT_GT(ring.topa.overflowEpisodes(), 2u);
        EXPECT_EQ(pin, pins[i]) << "latency " << latencies[i];
    }
}

TEST(IptPins, OverflowRingUnderSeededEvents)
{
    // A seeded mix of branch kinds, so that an overflow episode can end
    // just before a conditional outcome: it must wait for the resync.
    // (A server loop with two Jccs per iteration always flushes its
    // TNT on the same one, and the next event is never a Jcc.)
    Rng rng(45);
    DigestedRing ring({512, 512}, 24);
    IptEncoder encoder(productionConfig(0x1000, 256), ring.topa);
    uint64_t ip = 0x400000;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t next = 0x400000 + 4 * rng.below(4096);
        switch (rng.below(8)) {
          case 0:
            encoder.onBranch(event(BranchKind::IndirectJump, ip, next,
                                   0x1000));
            break;
          case 1:
            encoder.onBranch(event(BranchKind::DirectJump, ip, next,
                                   0x1000));
            break;
          case 2:
            encoder.onBranch(event(BranchKind::SyscallEntry, ip, 0,
                                   0x1000));
            encoder.onBranch(event(BranchKind::SyscallExit, ip, ip + 2,
                                   0x1000));
            break;
          default:
            encoder.onBranch(event(rng.chance(0.5)
                                       ? BranchKind::CondTaken
                                       : BranchKind::CondNotTaken,
                                   ip, next, 0x1000));
            break;
        }
        ip = next;
    }
    encoder.flushTnt();
    EXPECT_GT(ring.topa.overflowEpisodes(), 20u);
    EXPECT_EQ(ring.pin(encoder.stats()),
              (RingPin{31324, 0x1bc73c7be7c371d2ULL, 4128, 12466, 2551,
                       2553, 2529, 2529, 123, 30, 32076, 30, 774}));
}

TEST(IptPins, ClearedRingsRefill)
{
    // One process traced into a ring that is cleared mid-run (as at a
    // code-unload barrier) and then refilled: once before the ring
    // ever wrapped, once after it did.
    const auto spec = workloads::serverSuite()[3];
    // [wrapped before the clear][refilled, finished]
    const RingPin pins[2][2] = {
        {{1292, 0xed7f5092fd44610fULL,
          1005, 6005, 510, 5, 4, 4, 4, 0, 2694, 0, 0},
         {33849, 0x33af2780888de8f8ULL,
          13531, 81044, 6841, 23, 23, 23, 35, 0, 35251, 0, 0}},
        {{1296, 0x2503e87f0d597b20ULL,
          10539, 63122, 5325, 17, 16, 16, 28, 0, 27429, 0, 0},
         {9124, 0xa298c66abdbfbafdULL,
          13531, 81044, 6841, 23, 23, 23, 35, 0, 35257, 0, 0}},
    };
    for (const bool wrap_first : {false, true}) {
        DigestedRing ring({4096, 4096});
        TracedServer server(spec, 201, 6);
        IptEncoder encoder(productionConfig(server.cr3()), ring.topa);
        server.trace(encoder);
        ASSERT_EQ(server.run(wrap_first ? 400'000 : 20'000),
                  cpu::Cpu::Stop::InstLimit);
        ASSERT_EQ(ring.topa.wrapped(), wrap_first);
        encoder.flushTnt();
        ring.clear();
        encoder.restartStream();
        // Refill part of a lap, pin, then run on through wraps.
        ASSERT_EQ(server.run(20'000), cpu::Cpu::Stop::InstLimit);
        encoder.flushTnt();
        EXPECT_FALSE(ring.topa.wrapped());
        const RingPin refilled = ring.pin(encoder.stats());
        EXPECT_EQ(server.run(pin_budget), cpu::Cpu::Stop::Halted);
        encoder.flushTnt();
        EXPECT_TRUE(ring.topa.wrapped());
        const RingPin finished = ring.pin(encoder.stats());
        EXPECT_EQ(refilled, pins[wrap_first][0]);
        EXPECT_EQ(finished, pins[wrap_first][1]);
    }
}

TEST(IptPins, SharedEncoderAcrossContextSwitches)
{
    // Two processes time-sliced on one encoder filtered to the first:
    // each switch away leaves the context (TIP.PGD), each switch back
    // re-enters it (TIP.PGE).
    const auto specs = workloads::serverSuite();
    TracedServer traced(specs[0], 201, 3);
    TracedServer other(specs[1], 202, 3);
    DigestedRing ring({8192, 8192});
    IptEncoder encoder(productionConfig(traced.cr3()), ring.topa);
    traced.trace(encoder);
    other.trace(encoder);
    bool traced_on = true;
    bool other_on = true;
    while (traced_on || other_on) {
        if (traced_on)
            traced_on = traced.run(1500) == cpu::Cpu::Stop::InstLimit;
        if (other_on)
            other_on = other.run(1100) == cpu::Cpu::Stop::InstLimit;
    }
    encoder.flushTnt();
    const RingPin pin = ring.pin(encoder.stats());
    EXPECT_GT(encoder.stats().pgdPackets, encoder.stats().fupPackets);
    EXPECT_EQ(pin, (RingPin{16508, 0xd632ae7f2f8fe56fULL, 6120, 35898,
                            3044, 171, 171, 14, 16, 0, 16508, 0, 0}));
}

} // namespace

/**
 * @file
 * Unit tests for the IPT hardware model: ToPA output, packet
 * generation rules (Table 3), TNT batching, PSB cadence, CR3 and IP
 * filtering transitions, syscall far-transfer sequences.
 */

#include <gtest/gtest.h>

#include "cpu/events.hh"
#include "support/logging.hh"
#include "trace/ipt.hh"

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

} // namespace

/**
 * @file
 * Recovery snapshot tests (plus the satellite S1 coverage of atomic,
 * recoverable persistence):
 *
 *  - serialize/load round trip of the folded protection state;
 *  - the fold semantics warm restart depends on: delivery cancels
 *    its commit, unload/rebase prunes credit on the retired range,
 *    endpoint seqs keep a high-water mark;
 *  - damage tolerance in the shared recoverable-status vocabulary:
 *    truncation, bit flips and foreign bytes are classified, never
 *    fatal, and never yield a half-trusted state;
 *  - atomic on-disk saves: a snapshot (and a training profile)
 *    written via the temp-file + rename path never leaves a torn
 *    file under the final name, and a truncated file on disk is
 *    rejected with Truncated, not garbage state.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/profile_io.hh"
#include "recovery/snapshot.hh"
#include "support/fsio.hh"
#include "workloads/apps.hh"

namespace {

using namespace flowguard;
using namespace flowguard::recovery;
using Status = ProfileLoadResult::Status;

constexpr uint8_t tip_tnt[] = {1, 1, 0};

decode::TransitionView
tip(uint64_t from, uint64_t to)
{
    return {from, to, tip_tnt};
}

JournalRecord
commitOf(uint64_t cr3, std::vector<decode::TransitionView> ts,
         std::vector<uint64_t> paths = {})
{
    JournalRecord record;
    record.type = RecordType::CreditCommit;
    record.cr3 = cr3;
    {
        ByteWriter out(record.credits);
        encodeTransitions(out, ts);
    }
    record.creditCount = ts.size();
    record.paths = std::move(paths);
    return record;
}

/** A process's folded credit pairs, decoded. */
std::vector<decode::TipTransition>
creditsOf(const ProcessSnapshot &proc)
{
    std::vector<decode::TransitionView> views;
    ByteReader in{proc.credits.data(), proc.credits.size()};
    EXPECT_TRUE(decodeTransitions(in, proc.creditCount, &views));
    std::vector<decode::TipTransition> out;
    for (const auto &view : views)
        out.push_back({view.from, view.to,
                       {view.tnt.begin(), view.tnt.end()}});
    return out;
}

RecoveredState
sampleState()
{
    RecoveredState state;
    state.apply(commitOf(0xA, {tip(0x1000, 0x2000),
                               tip(0x3000, 0x4000)}, {0x51, 0x52}));
    state.apply(commitOf(0xB, {tip(0x1100, 0x2100)}));
    state.apply(commitOf(0xA, {}, {0x53}));

    JournalRecord seq;
    seq.type = RecordType::EndpointSeq;
    seq.cr3 = 0xA;
    seq.seq = 41;
    state.apply(seq);
    seq.seq = 7;                    // stale: must not lower the mark
    state.apply(seq);

    JournalRecord verdict;
    verdict.type = RecordType::VerdictCommitted;
    verdict.cr3 = 0xB;
    verdict.seq = 9;
    verdict.verdictKind = 0;
    verdict.syscall = 1;
    verdict.from = 0x1100;
    verdict.to = 0x2100;
    verdict.reason = "cfi mismatch at write";
    state.apply(verdict);
    return state;
}

TEST(RecoverySnapshot, SerializeLoadRoundTrip)
{
    const RecoveredState state = sampleState();
    const auto bytes = serializeSnapshot(state);
    const auto loaded = loadSnapshot(bytes);
    ASSERT_EQ(loaded.status, Status::Ok);

    ASSERT_EQ(loaded.state.processes.size(), 2u);
    const auto &proc_a = loaded.state.processes.at(0xA);
    const auto credits_a = creditsOf(proc_a);
    EXPECT_EQ(proc_a.creditCount, 2u);
    ASSERT_EQ(credits_a.size(), 2u);
    EXPECT_EQ(credits_a[0].from, 0x1000u);
    EXPECT_EQ(credits_a[0].tnt,
              (std::vector<uint8_t>{1, 1, 0}));
    // The n-gram hashes of both commit deltas, in commit order.
    EXPECT_EQ(proc_a.paths, (std::vector<uint64_t>{0x51, 0x52, 0x53}));
    EXPECT_TRUE(loaded.state.processes.at(0xB).paths.empty());
    EXPECT_EQ(proc_a.seqHighWater, 41u);
    ASSERT_EQ(loaded.state.undeliveredVerdicts.size(), 1u);
    EXPECT_EQ(loaded.state.undeliveredVerdicts[0].seq, 9u);
    EXPECT_EQ(loaded.state.undeliveredVerdicts[0].reason,
              "cfi mismatch at write");
}

TEST(RecoverySnapshot, EmptyBufferIsFirstBoot)
{
    const auto loaded = loadSnapshot(nullptr, 0);
    EXPECT_EQ(loaded.status, Status::Ok);
    EXPECT_TRUE(loaded.state.processes.empty());
}

TEST(RecoverySnapshot, DeliveryCancelsItsCommit)
{
    RecoveredState state;
    JournalRecord verdict;
    verdict.type = RecordType::VerdictCommitted;
    verdict.cr3 = 0xA;
    verdict.seq = 5;
    state.apply(verdict);
    ASSERT_EQ(state.undeliveredVerdicts.size(), 1u);

    JournalRecord delivered;
    delivered.type = RecordType::VerdictDelivered;
    delivered.cr3 = 0xA;
    delivered.seq = 5;
    state.apply(delivered);
    EXPECT_TRUE(state.undeliveredVerdicts.empty());
    EXPECT_EQ(state.dedupDropped, 1u);

    // Replaying the commit again (e.g. from an older snapshot plus
    // a journal that holds both halves) must stay cancelled.
    state.apply(verdict);
    EXPECT_TRUE(state.undeliveredVerdicts.empty());
    EXPECT_EQ(state.dedupDropped, 2u);
}

TEST(RecoverySnapshot, UnloadPrunesCreditOnRetiredRange)
{
    RecoveredState state;
    state.apply(commitOf(0xA, {tip(0x1000, 0x2000),
                               tip(0x5000, 0x6000)}, {0x77}));
    JournalRecord unload;
    unload.type = RecordType::ModuleEvent;
    unload.cr3 = 0xA;
    unload.moduleKind = ModuleEventKind::Unload;
    unload.begin = 0x5000;
    unload.end = 0x7000;
    state.apply(unload);

    const auto credits = creditsOf(state.processes.at(0xA));
    ASSERT_EQ(credits.size(), 1u);
    EXPECT_EQ(state.processes.at(0xA).creditCount, 1u);
    EXPECT_EQ(credits[0].from, 0x1000u);
    // N-grams are not pruned: the live path index keeps them too.
    EXPECT_EQ(state.processes.at(0xA).paths,
              (std::vector<uint64_t>{0x77}));

    // A commit AFTER the unload (new code mapped at the same place)
    // is a different epoch and must survive.
    state.apply(commitOf(0xA, {tip(0x5000, 0x6000)}));
    EXPECT_EQ(creditsOf(state.processes.at(0xA)).size(), 2u);
    EXPECT_EQ(state.processes.at(0xA).creditCount, 2u);
}

TEST(RecoverySnapshot, TruncatedSnapshotRejectedCleanly)
{
    const auto bytes = serializeSnapshot(sampleState());
    for (size_t keep : {size_t{4}, size_t{10}, bytes.size() / 2,
                        bytes.size() - 1}) {
        std::vector<uint8_t> cut(bytes.begin(),
                                 bytes.begin() + keep);
        const auto loaded = loadSnapshot(cut);
        EXPECT_NE(loaded.status, Status::Ok) << "kept " << keep;
        EXPECT_TRUE(loaded.state.processes.empty() &&
                    loaded.state.undeliveredVerdicts.empty())
            << "kept " << keep
            << ": a rejected snapshot must not leak partial state";
    }
}

TEST(RecoverySnapshot, BitFlippedSnapshotRejectedAsBadChecksum)
{
    auto bytes = serializeSnapshot(sampleState());
    bytes[bytes.size() / 2] ^= 0x40;
    const auto loaded = loadSnapshot(bytes);
    EXPECT_EQ(loaded.status, Status::BadChecksum);
    EXPECT_TRUE(loaded.state.processes.empty());
}

TEST(RecoverySnapshot, ForeignBytesRejectedAsBadMagic)
{
    std::vector<uint8_t> bytes(64, 0x5A);
    const auto loaded = loadSnapshot(bytes);
    EXPECT_EQ(loaded.status, Status::BadMagic);
}

TEST(RecoverySnapshot, AtomicSaveLeavesNoTempAndRoundTrips)
{
    const std::string path = "recovery_snapshot_atomic.bin";
    const auto bytes = serializeSnapshot(sampleState());
    ASSERT_TRUE(writeFileAtomic(path, bytes.data(), bytes.size()));

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::vector<uint8_t> read(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(read, bytes);
    const auto loaded = loadSnapshot(read);
    EXPECT_EQ(loaded.status, Status::Ok);
    EXPECT_EQ(loaded.state.processes.size(), 2u);

    // No temp-file litter from the atomic rename protocol.
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

TEST(RecoverySnapshot, TruncatedProfileOnDiskIsRecoverable)
{
    // The same recoverable-status vocabulary covers training
    // profiles. A profile truncated on disk (simulating a crashed
    // copy) must come back Truncated from tryLoadProfile — never an
    // abort, never a half-applied credit state presented as Ok.
    workloads::ServerSpec spec;
    spec.numHandlers = 2;
    spec.numFillerFuncs = 4;
    spec.cr3 = 0xCAFE;
    auto app = workloads::buildServerApp(spec);
    FlowGuard guard(app.program);
    guard.analyze();
    guard.trainWithCorpus(
        {workloads::makeBenignStream(6, 1, 2, 2)});

    const std::string path = "recovery_profile_trunc.bin";
    std::ostringstream saved(std::ios::binary);
    saveProfile(guard, saved);
    const std::string bytes = saved.str();
    ASSERT_GT(bytes.size(), 16u);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
    out.close();

    FlowGuard fresh(app.program);
    std::ifstream in(path, std::ios::binary);
    const auto result = tryLoadProfile(fresh, in);
    EXPECT_EQ(result.status, Status::Truncated)
        << profileStatusName(result.status) << ": "
        << result.message;
    std::remove(path.c_str());
}

} // namespace

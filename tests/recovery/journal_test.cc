/**
 * @file
 * StateJournal unit + fuzz tests.
 *
 * The journal is the recovery path's input, and a recovery path that
 * can crash on its input is not a recovery path. The fuzz suite
 * (satellite S3) drives 1'000 seeded damage cases — truncations at
 * arbitrary byte offsets and single-bit flips at arbitrary bit
 * positions — through the reader and asserts the full contract every
 * time: never aborts, never yields a record past the damage point,
 * every yielded record is byte-identical to what was appended, and
 * the status is always one of the recoverable classes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "recovery/journal.hh"
#include "support/random.hh"

namespace {

using namespace flowguard;
using namespace flowguard::recovery;
using Status = ProfileLoadResult::Status;

JournalRecord
creditRecord(uint64_t cr3, uint64_t from, uint64_t to,
             std::vector<uint8_t> tnt = {1, 0, 1})
{
    JournalRecord record;
    record.type = RecordType::CreditCommit;
    record.cr3 = cr3;
    const decode::TransitionView transition{from, to, tnt};
    {
        ByteWriter out(record.credits);
        encodeTransitions(out, {&transition, 1});
    }
    record.creditCount = 1;
    return record;
}

JournalRecord
verdictRecord(uint64_t cr3, uint64_t seq, const std::string &why)
{
    JournalRecord record;
    record.type = RecordType::VerdictCommitted;
    record.cr3 = cr3;
    record.seq = seq;
    record.verdictKind = 0;
    record.syscall = 1;
    record.from = 0x1000;
    record.to = 0x2000;
    record.reason = why;
    return record;
}

JournalRecord
seqRecord(uint64_t cr3, uint64_t seq)
{
    JournalRecord record;
    record.type = RecordType::EndpointSeq;
    record.cr3 = cr3;
    record.seq = seq;
    return record;
}

JournalRecord
moduleRecord(uint64_t cr3, ModuleEventKind kind, uint64_t begin,
             uint64_t end)
{
    JournalRecord record;
    record.type = RecordType::ModuleEvent;
    record.cr3 = cr3;
    record.moduleKind = kind;
    record.begin = begin;
    record.end = end;
    record.newBase = end + 0x1000;
    return record;
}

bool
sameRecord(const JournalRecord &a, const JournalRecord &b)
{
    if (a.type != b.type || a.cr3 != b.cr3 || a.seq != b.seq)
        return false;
    if (a.creditCount != b.creditCount || a.credits != b.credits)
        return false;
    return a.verdictKind == b.verdictKind &&
        a.syscall == b.syscall && a.from == b.from && a.to == b.to &&
        a.reason == b.reason && a.moduleKind == b.moduleKind &&
        a.begin == b.begin && a.end == b.end &&
        a.newBase == b.newBase;
}

TEST(StateJournal, RoundTripsEveryRecordType)
{
    StateJournal journal;
    std::vector<JournalRecord> originals;
    originals.push_back(creditRecord(0xA, 0x1000, 0x2000));
    originals.push_back(verdictRecord(0xA, 3, "cfi mismatch"));
    JournalRecord delivered;
    delivered.type = RecordType::VerdictDelivered;
    delivered.cr3 = 0xA;
    delivered.seq = 3;
    originals.push_back(delivered);
    originals.push_back(seqRecord(0xB, 17));
    originals.push_back(
        moduleRecord(0xB, ModuleEventKind::Unload, 0x4000, 0x5000));
    for (const auto &record : originals)
        journal.append(record);
    EXPECT_EQ(journal.recordCount(), originals.size());

    const auto result = readJournal(journal.bytes());
    EXPECT_EQ(result.status, Status::Ok);
    EXPECT_EQ(result.bytesConsumed, journal.bytes().size());
    EXPECT_EQ(result.bytesDropped, 0u);
    ASSERT_EQ(result.records.size(), originals.size());
    for (size_t i = 0; i < originals.size(); ++i)
        EXPECT_TRUE(sameRecord(result.records[i], originals[i]))
            << "record " << i << " ("
            << recordTypeName(originals[i].type) << ")";

    // The commit's credit bytes read back as the transition written.
    const JournalRecord &commit = result.records[0];
    std::vector<decode::TransitionView> views;
    ByteReader in{commit.credits.data(), commit.credits.size()};
    ASSERT_TRUE(decodeTransitions(in, commit.creditCount, &views));
    EXPECT_EQ(in.offset, commit.credits.size());
    ASSERT_EQ(views.size(), 1u);
    EXPECT_EQ(views[0].from, 0x1000u);
    EXPECT_EQ(views[0].to, 0x2000u);
    EXPECT_EQ(std::vector<uint8_t>(views[0].tnt.begin(), views[0].tnt.end()),
              (std::vector<uint8_t>{1, 0, 1}));
}

TEST(StateJournal, EmptyJournalReadsOk)
{
    StateJournal journal;
    const auto result = readJournal(journal.bytes());
    EXPECT_EQ(result.status, Status::Ok);
    EXPECT_TRUE(result.records.empty());
}

TEST(StateJournal, TornTailStopsAtLastIntactRecord)
{
    StateJournal journal;
    for (uint64_t i = 0; i < 5; ++i)
        journal.append(seqRecord(0xA, i));
    const size_t intact = journal.bytes().size();
    journal.append(verdictRecord(0xA, 5, "torn victim"));

    // Tear the last append anywhere inside its frame.
    auto bytes = journal.bytes();
    bytes.resize(intact + 3);
    const auto result = readJournal(bytes);
    EXPECT_EQ(result.status, Status::Truncated);
    EXPECT_EQ(result.records.size(), 5u);
    EXPECT_EQ(result.bytesConsumed, intact);
    EXPECT_EQ(result.bytesDropped, 3u);
}

TEST(StateJournal, BitFlipStopsAtCorruptFrame)
{
    StateJournal journal;
    journal.append(seqRecord(0xA, 1));
    const size_t first = journal.bytes().size();
    journal.append(verdictRecord(0xA, 2, "flip victim"));
    journal.append(seqRecord(0xA, 3));

    // Flip one payload bit in the middle record: CRC32 detects every
    // single-bit error, so the read must stop exactly there — record
    // 3 is intact bytes-wise but must NOT be replayed past damage.
    auto bytes = journal.bytes();
    bytes[first + 12] ^= 0x10;
    const auto result = readJournal(bytes);
    EXPECT_EQ(result.status, Status::BadChecksum);
    ASSERT_EQ(result.records.size(), 1u);
    EXPECT_EQ(result.records[0].seq, 1u);
    EXPECT_EQ(result.bytesConsumed, first);
}

TEST(StateJournal, TruncateToDiscardsTornTail)
{
    StateJournal journal;
    journal.append(seqRecord(0xA, 1));
    const size_t intact = journal.bytes().size();
    journal.append(seqRecord(0xA, 2));
    journal.mutableBytes().resize(intact + 2);   // torn append

    const auto damaged = readJournal(journal.bytes());
    EXPECT_EQ(damaged.status, Status::Truncated);
    journal.truncateTo(damaged.bytesConsumed);

    // Appending after the cut must yield a fully readable journal —
    // a torn tail left in place would bury every later record.
    journal.append(seqRecord(0xA, 3));
    const auto healed = readJournal(journal.bytes());
    EXPECT_EQ(healed.status, Status::Ok);
    ASSERT_EQ(healed.records.size(), 2u);
    EXPECT_EQ(healed.records[1].seq, 3u);
}

TEST(StateJournal, FuzzedDamageNeverPanicsNorReplaysPastDamage)
{
    Rng rng(0x5EED'F02Dull);
    for (int iteration = 0; iteration < 1'000; ++iteration) {
        // Build a journal with a random record mix.
        StateJournal journal;
        std::vector<JournalRecord> originals;
        const uint64_t count = rng.range(1, 12);
        for (uint64_t i = 0; i < count; ++i) {
            switch (rng.range(0, 4)) {
              case 0:
                originals.push_back(creditRecord(
                    rng.range(1, 4), rng.next(), rng.next(),
                    {static_cast<uint8_t>(rng.range(0, 1)),
                     static_cast<uint8_t>(rng.range(0, 1))}));
                break;
              case 1:
                originals.push_back(verdictRecord(
                    rng.range(1, 4), i,
                    std::string(rng.range(0, 40), 'r')));
                break;
              case 2:
                originals.push_back(seqRecord(rng.range(1, 4), i));
                break;
              case 3: {
                JournalRecord delivered;
                delivered.type = RecordType::VerdictDelivered;
                delivered.cr3 = rng.range(1, 4);
                delivered.seq = i;
                originals.push_back(delivered);
                break;
              }
              default:
                originals.push_back(moduleRecord(
                    rng.range(1, 4),
                    static_cast<ModuleEventKind>(rng.range(1, 3)),
                    rng.next() & 0xFFFF'F000,
                    (rng.next() & 0xFFFF'F000) + 0x1000));
                break;
            }
            journal.append(originals.back());
        }

        // Damage it: truncate at a random offset, or flip one bit.
        std::vector<uint8_t> bytes = journal.bytes();
        const bool truncate = rng.range(0, 1) == 0;
        if (truncate) {
            bytes.resize(rng.range(0, bytes.size()));
        } else {
            const size_t byte_at = rng.range(0, bytes.size() - 1);
            bytes[byte_at] ^= static_cast<uint8_t>(
                1u << rng.range(0, 7));
        }

        // The contract, every case: a recoverable status, a byte
        // budget that adds up, and only intact prefix records.
        const auto result = readJournal(bytes);
        ASSERT_TRUE(result.status == Status::Ok ||
                    result.status == Status::Truncated ||
                    result.status == Status::BadChecksum)
            << "iteration " << iteration;
        ASSERT_EQ(result.bytesConsumed + result.bytesDropped,
                  bytes.size())
            << "iteration " << iteration;
        ASSERT_LE(result.bytesConsumed, bytes.size());
        ASSERT_LE(result.records.size(), originals.size())
            << "iteration " << iteration
            << ": more records than were appended";
        for (size_t i = 0; i < result.records.size(); ++i)
            ASSERT_TRUE(sameRecord(result.records[i], originals[i]))
                << "iteration " << iteration << " record " << i
                << ": replayed content diverges from what the "
                   "writer appended";
        // A bit flip is always detected (CRC32 catches all single-bit
        // errors): the journal must not read fully Ok with all
        // records unless the flip landed in already-dead tail bytes —
        // impossible here since every byte belongs to some frame.
        if (!truncate && !bytes.empty()) {
            ASSERT_FALSE(result.status == Status::Ok &&
                         result.records.size() == originals.size())
                << "iteration " << iteration
                << ": single-bit corruption went undetected";
        }
    }
}

} // namespace

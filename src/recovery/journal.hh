/**
 * @file
 * StateJournal — the append-only, CRC-framed record of protection-
 * state mutations that makes checker death survivable.
 *
 * The checker process can die at any instruction, including halfway
 * through an append. The journal's framing is designed around that
 * single fact: every record is [u32 payloadLen][u32 crc32(payload)]
 * [payload], so a reader walking the bytes can always distinguish
 * "the writer finished this record" from "the crash tore it". The
 * reader NEVER aborts on damage — it returns every record up to the
 * first torn or corrupt frame and reports what stopped it, because a
 * recovery path that can itself crash on its input is not a recovery
 * path.
 *
 * What gets journaled is exactly the volatile state a crash destroys
 * and a warm restart must reproduce:
 *  - CreditCommit: one verdict-cache commit's delta, what it added to
 *    the runtime overlay: the (edge, TNT) pairs the ITC-CFG did not
 *    hold and the n-gram hashes the path index did not hold. A commit
 *    that added nothing journals nothing;
 *  - VerdictCommitted / VerdictDelivered: the two halves of deferred
 *    enforcement, keyed (cr3, seq), so a crash between them neither
 *    loses a kill nor delivers it twice;
 *  - EndpointSeq: the per-process checked high-water mark;
 *  - ModuleEvent: load/unload/rebase, so replay never restores
 *    credit onto a range that was retired during or before the gap.
 */

#ifndef FLOWGUARD_RECOVERY_JOURNAL_HH
#define FLOWGUARD_RECOVERY_JOURNAL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/profile_io.hh"
#include "decode/fast_decoder.hh"
#include "support/byte_codec.hh"

namespace flowguard::recovery {

/** The protection-state mutations worth surviving a crash. */
enum class RecordType : uint8_t {
    CreditCommit = 1,
    VerdictCommitted = 2,
    VerdictDelivered = 3,
    EndpointSeq = 4,
    ModuleEvent = 5,
};

const char *recordTypeName(RecordType type);

/** Module lifecycle classes a replay must respect. */
enum class ModuleEventKind : uint8_t {
    Load = 1,
    Unload = 2,
    Rebase = 3,
};

/**
 * One journal record. A tagged union in the simulator's usual flat
 * style: `type` says which fields are meaningful.
 */
struct JournalRecord
{
    RecordType type = RecordType::EndpointSeq;
    uint64_t cr3 = 0;

    /** CreditCommit: the new (edge, TNT) pairs, as transitions. */
    std::vector<decode::TipTransition> transitions;
    /** CreditCommit: the new n-gram hashes. */
    std::vector<uint64_t> paths;

    /** VerdictCommitted / VerdictDelivered / EndpointSeq. */
    uint64_t seq = 0;

    /** VerdictCommitted payload (enough to rebuild the report). */
    uint8_t verdictKind = 0;
    int64_t syscall = 0;
    uint64_t from = 0;
    uint64_t to = 0;
    std::string reason;

    /** ModuleEvent payload: [begin, end) retired or moved. */
    ModuleEventKind moduleKind = ModuleEventKind::Load;
    uint64_t begin = 0;
    uint64_t end = 0;
    uint64_t newBase = 0;
};

/**
 * The append-only journal. Bytes are the durable medium — the
 * supervisor survives the checker, and fault injection tears the
 * byte vector exactly where a real crash would tear the file.
 */
class StateJournal
{
  public:
    /** Appends one CRC-framed record. */
    void append(const JournalRecord &record);

    const std::vector<uint8_t> &bytes() const { return _bytes; }

    /** Mutable view for fault injection (torn-tail crashes). */
    std::vector<uint8_t> &mutableBytes() { ++_edits; return _bytes; }

    /** Drops everything (after a compaction made it redundant). */
    void clear();

    /** Truncates to `size` bytes — discards a torn tail so later
     *  appends never follow garbage. */
    void truncateTo(size_t size);

    /** Records appended since construction or the last clear(). */
    size_t recordCount() const { return _records; }

    /** Counts clear(), truncateTo() and mutableBytes() calls: what a
     *  reader folding the appends cannot see. */
    uint64_t edits() const { return _edits; }

  private:
    std::vector<uint8_t> _bytes;
    size_t _records = 0;
    uint64_t _edits = 0;
};

/** What a tolerant journal read produced. */
struct JournalReadResult
{
    std::vector<JournalRecord> records;
    /** Ok, Truncated (torn frame) or BadChecksum (corrupt frame) —
     *  the same recoverable-status vocabulary profile loading uses. */
    ProfileLoadResult::Status status = ProfileLoadResult::Status::Ok;
    /** Length of the valid prefix (offset of the first bad frame). */
    size_t bytesConsumed = 0;
    /** Bytes after the valid prefix that were not replayed. */
    size_t bytesDropped = 0;
};

/**
 * Reads every intact record, stopping at the first torn or corrupt
 * frame. Never throws, never aborts, never returns a record from
 * beyond the damage — replaying past a torn point would apply
 * mutations the pre-crash checker may never have made.
 */
JournalReadResult readJournal(const uint8_t *data, size_t size);

JournalReadResult readJournal(const std::vector<uint8_t> &bytes);

/** The encodings journal frames and snapshots share. A transition is
 *  from, to, u64 TNT length, TNT bytes; decoding reads `count` of them
 *  into `out` as views of `in`'s bytes (or only walks them when it is
 *  null) and fails when they over-run `in`. A hash list is its u64
 *  count, then the hashes. A committed verdict after its cr3 is seq,
 *  kind, syscall, from, to, u64 reason length, reason. */
void encodeTransitions(ByteWriter &out,
                       const std::vector<decode::TipTransition> &transitions);
bool decodeTransitions(ByteReader &in, uint64_t count,
                       std::vector<decode::TransitionView> *out);
void encodeHashes(ByteWriter &out, const std::vector<uint64_t> &hashes);
bool decodeHashes(ByteReader &in, std::vector<uint64_t> &out);
void writeVerdict(ByteWriter &out, const JournalRecord &verdict);
void readVerdict(ByteReader &in, JournalRecord &verdict);

} // namespace flowguard::recovery

#endif // FLOWGUARD_RECOVERY_JOURNAL_HH

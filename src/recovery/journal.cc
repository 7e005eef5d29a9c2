#include "recovery/journal.hh"

#include "support/crc32.hh"

namespace flowguard::recovery {

namespace {

// A frame's payload is bounded in practice by one CreditCommit's
// delta; anything claiming more than this is a corrupt length field,
// not a real record.
constexpr size_t max_payload = 1u << 24;

void
encodePayload(ByteWriter &out, const JournalRecord &record)
{
    out.u8(static_cast<uint8_t>(record.type));
    out.u64(record.cr3);
    switch (record.type) {
      case RecordType::CreditCommit:
        out.u64(record.transitions.size());
        encodeTransitions(out, record.transitions);
        encodeHashes(out, record.paths);
        break;
      case RecordType::VerdictCommitted:
        writeVerdict(out, record);
        break;
      case RecordType::VerdictDelivered:
      case RecordType::EndpointSeq:
        out.u64(record.seq);
        break;
      case RecordType::ModuleEvent:
        out.u8(static_cast<uint8_t>(record.moduleKind));
        out.u64(record.begin);
        out.u64(record.end);
        out.u64(record.newBase);
        break;
    }
}

/** Decodes one payload; false when malformed (truncated content or
 *  unknown type — both impossible for frames whose CRC matched a
 *  well-formed writer, so either means corruption). */
bool
decodePayload(const uint8_t *data, size_t size, JournalRecord &out)
{
    ByteReader in{data, size};
    const uint8_t type = in.u8();
    if (type < static_cast<uint8_t>(RecordType::CreditCommit) ||
        type > static_cast<uint8_t>(RecordType::ModuleEvent))
        return false;
    out.type = static_cast<RecordType>(type);
    out.cr3 = in.u64();
    switch (out.type) {
      case RecordType::CreditCommit: {
        std::vector<decode::TransitionView> views;
        if (!decodeTransitions(in, in.u64(), &views) ||
            !decodeHashes(in, out.paths))
            return false;
        out.transitions.reserve(views.size());
        for (const auto &view : views)
            out.transitions.push_back(
                {view.from, view.to, {view.tnt.begin(), view.tnt.end()}});
        break;
      }
      case RecordType::VerdictCommitted:
        readVerdict(in, out);
        break;
      case RecordType::VerdictDelivered:
      case RecordType::EndpointSeq:
        out.seq = in.u64();
        break;
      case RecordType::ModuleEvent: {
        const uint8_t kind = in.u8();
        if (kind < static_cast<uint8_t>(ModuleEventKind::Load) ||
            kind > static_cast<uint8_t>(ModuleEventKind::Rebase))
            return false;
        out.moduleKind = static_cast<ModuleEventKind>(kind);
        out.begin = in.u64();
        out.end = in.u64();
        out.newBase = in.u64();
        break;
      }
    }
    return !in.truncated && in.offset == size;
}

} // namespace

const char *
recordTypeName(RecordType type)
{
    switch (type) {
      case RecordType::CreditCommit: return "credit-commit";
      case RecordType::VerdictCommitted: return "verdict-committed";
      case RecordType::VerdictDelivered: return "verdict-delivered";
      case RecordType::EndpointSeq: return "endpoint-seq";
      case RecordType::ModuleEvent: return "module-event";
    }
    return "?";
}

void
encodeTransitions(ByteWriter &out,
                  const std::vector<decode::TipTransition> &transitions)
{
    for (const auto &transition : transitions) {
        out.u64(transition.from);
        out.u64(transition.to);
        out.u64(transition.tnt.size());
        out.bytes(transition.tnt.data(), transition.tnt.size());
    }
}

bool
decodeTransitions(ByteReader &in, uint64_t count,
                  std::vector<decode::TransitionView> *out)
{
    // Each transition takes bytes: a larger count is corruption.
    if (in.truncated || count > in.size)
        return false;
    if (out)
        out->reserve(out->size() + count);
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t from = in.u64();
        const uint64_t to = in.u64();
        const uint64_t tnt_len = in.u64();
        const uint8_t *tnt = in.bytes(tnt_len);
        if (!tnt)
            return false;
        if (out)
            out->push_back({from, to, {tnt, tnt_len}});
    }
    return true;
}

void
encodeHashes(ByteWriter &out, const std::vector<uint64_t> &hashes)
{
    out.u64(hashes.size());
    for (const uint64_t hash : hashes)
        out.u64(hash);
}

bool
decodeHashes(ByteReader &in, std::vector<uint64_t> &out)
{
    const uint64_t count = in.u64();
    // Eight bytes each: a larger count is corruption.
    if (in.truncated || count > (in.size - in.offset) / 8)
        return false;
    out.reserve(out.size() + count);
    for (uint64_t i = 0; i < count; ++i)
        out.push_back(in.u64());
    return true;
}

void
writeVerdict(ByteWriter &out, const JournalRecord &verdict)
{
    out.u64(verdict.seq);
    out.u8(verdict.verdictKind);
    out.u64(static_cast<uint64_t>(verdict.syscall));
    out.u64(verdict.from);
    out.u64(verdict.to);
    out.u64(verdict.reason.size());
    out.bytes(verdict.reason.data(), verdict.reason.size());
}

void
readVerdict(ByteReader &in, JournalRecord &verdict)
{
    verdict.seq = in.u64();
    verdict.verdictKind = in.u8();
    verdict.syscall = static_cast<int64_t>(in.u64());
    verdict.from = in.u64();
    verdict.to = in.u64();
    const uint64_t len = in.u64();
    if (const uint8_t *reason = in.bytes(len))
        verdict.reason.assign(reason, reason + len);
}

void
StateJournal::append(const JournalRecord &record)
{
    ByteWriter out(_bytes);
    const size_t frame = out.beginFrame();
    encodePayload(out, record);
    out.endFrame(frame);
    ++_records;
}

void
StateJournal::clear()
{
    _bytes.clear();
    _records = 0;
    ++_edits;
}

void
StateJournal::truncateTo(size_t size)
{
    if (size < _bytes.size())
        _bytes.resize(size);
    ++_edits;
}

JournalReadResult
readJournal(const uint8_t *data, size_t size)
{
    using Status = ProfileLoadResult::Status;
    JournalReadResult result;
    ByteReader in{data, size};
    while (in.offset < size) {
        const uint32_t len = in.u32();
        const uint32_t crc = in.u32();
        // A short header or payload is a torn append. No writer
        // produces frames over max_payload: such a length field is
        // itself corrupt, as is a payload its CRC or decoder rejects.
        const uint8_t *payload =
            len > max_payload ? nullptr : in.bytes(len);
        JournalRecord record;
        if (!payload || crc32(payload, len) != crc ||
            !decodePayload(payload, len, record)) {
            result.status = in.truncated ? Status::Truncated
                                         : Status::BadChecksum;
            break;
        }
        result.records.push_back(std::move(record));
        result.bytesConsumed = in.offset;
    }
    result.bytesDropped = size - result.bytesConsumed;
    return result;
}

JournalReadResult
readJournal(const std::vector<uint8_t> &bytes)
{
    return readJournal(bytes.data(), bytes.size());
}

} // namespace flowguard::recovery

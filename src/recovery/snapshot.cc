#include "recovery/snapshot.hh"

#include <algorithm>
#include <cstring>

#include "support/crc32.hh"

namespace flowguard::recovery {

namespace {

constexpr uint8_t snapshot_magic[8] = {'F', 'G', 'R', 'S',
                                       'N', 'P', '0', '2'};

} // namespace

void
RecoveredState::apply(const JournalRecord &record)
{
    switch (record.type) {
      case RecordType::CreditCommit: {
        ProcessSnapshot &proc = processes[record.cr3];
        ByteWriter out(proc.credits);
        encodeTransitions(out, record.transitions);
        proc.creditCount += record.transitions.size();
        proc.paths.insert(proc.paths.end(), record.paths.begin(),
                          record.paths.end());
        break;
      }
      case RecordType::VerdictCommitted:
        if (delivered.count({record.cr3, record.seq})) {
            // Already delivered in an earlier epoch; replaying it
            // would kill the process twice for one verdict.
            ++dedupDropped;
            break;
        }
        undeliveredVerdicts.push_back(record);
        break;
      case RecordType::VerdictDelivered:
        delivered.insert({record.cr3, record.seq});
        dedupDropped += std::erase_if(
            undeliveredVerdicts, [&](const JournalRecord &pending) {
                return pending.cr3 == record.cr3 &&
                       pending.seq == record.seq;
            });
        break;
      case RecordType::EndpointSeq: {
        uint64_t &high = processes[record.cr3].seqHighWater;
        high = std::max(high, record.seq);
        break;
      }
      case RecordType::ModuleEvent: {
        if (record.moduleKind == ModuleEventKind::Load)
            break;
        // Unload or rebase: credit earned against the old mapping of
        // [begin, end) must not survive the fold — mirroring what
        // DynamicGuard's revocation did to the live bitmap.
        auto it = processes.find(record.cr3);
        if (it == processes.end())
            break;
        // Compacts the wire forms in place, keeping commit order.
        ProcessSnapshot &proc = it->second;
        ByteReader in{proc.credits.data(), proc.credits.size()};
        size_t kept = 0;
        while (in.offset < in.size && !in.truncated) {
            const size_t at = in.offset;
            const uint64_t from = in.u64();
            const uint64_t to = in.u64();
            in.bytes(in.u64());
            if ((from >= record.begin && from < record.end) ||
                (to >= record.begin && to < record.end)) {
                --proc.creditCount;
                continue;
            }
            if (kept != at)
                std::memmove(proc.credits.data() + kept,
                             proc.credits.data() + at, in.offset - at);
            kept += in.offset - at;
        }
        proc.credits.resize(kept);
        break;
      }
    }
}

std::vector<uint8_t>
serializeSnapshot(const RecoveredState &state, std::vector<uint8_t> bytes)
{
    // The credit runs are nearly all of the bytes: one allocation
    // with room to grow, never a copy of what is already written.
    size_t credits = 0;
    for (const auto &entry : state.processes)
        credits += entry.second.credits.size() +
                   8 * entry.second.paths.size();
    bytes.clear();
    bytes.reserve(credits + credits / 2 + 4096);
    {
        // The writer trims the buffer when this scope closes.
        ByteWriter out(bytes);
        out.bytes(snapshot_magic, sizeof(snapshot_magic));
        const size_t body = out.beginFrame();
        out.u64(state.processes.size());
        for (const auto &entry : state.processes) {
            out.u64(entry.first);
            out.u64(entry.second.seqHighWater);
            out.u64(entry.second.creditCount);
            out.bytes(entry.second.credits.data(),
                      entry.second.credits.size());
            encodeHashes(out, entry.second.paths);
        }
        out.u64(state.undeliveredVerdicts.size());
        for (const auto &verdict : state.undeliveredVerdicts) {
            out.u64(verdict.cr3);
            writeVerdict(out, verdict);
        }
        out.u64(state.delivered.size());
        for (const auto &pair : state.delivered) {
            out.u64(pair.first);
            out.u64(pair.second);
        }
        out.endFrame(body);
    }
    return bytes;
}

SnapshotLoadResult
loadSnapshot(const uint8_t *data, size_t size)
{
    using Status = ProfileLoadResult::Status;
    SnapshotLoadResult result;
    if (size == 0)
        return result;    // first boot: empty state is Ok
    ByteReader frame{data, size};
    const uint8_t *magic = frame.bytes(sizeof(snapshot_magic));
    const uint32_t body_len = frame.u32();
    const uint32_t crc = frame.u32();
    const bool header = !frame.truncated;
    const uint8_t *body = frame.bytes(body_len);
    if (header && !std::equal(snapshot_magic,
                              snapshot_magic + sizeof(snapshot_magic),
                              magic)) {
        result.status = Status::BadMagic;
        return result;
    }
    if (!body || crc32(body, body_len) != crc) {
        result.status = body ? Status::BadChecksum : Status::Truncated;
        return result;
    }

    ByteReader in{body, body_len};
    const uint64_t proc_count = in.u64();
    for (uint64_t i = 0; i < proc_count && !in.truncated; ++i) {
        const uint64_t cr3 = in.u64();
        ProcessSnapshot proc;
        proc.seqHighWater = in.u64();
        proc.creditCount = in.u64();
        const size_t credits = in.offset;
        if (!decodeTransitions(in, proc.creditCount, nullptr)) {
            result.status = Status::BadChecksum;
            return result;
        }
        proc.credits.assign(in.data + credits, in.data + in.offset);
        if (!decodeHashes(in, proc.paths)) {
            result.status = Status::BadChecksum;
            return result;
        }
        result.state.processes[cr3] = std::move(proc);
    }
    const uint64_t verdict_count = in.u64();
    for (uint64_t i = 0; i < verdict_count && !in.truncated; ++i) {
        JournalRecord verdict;
        verdict.type = RecordType::VerdictCommitted;
        verdict.cr3 = in.u64();
        readVerdict(in, verdict);
        result.state.undeliveredVerdicts.push_back(
            std::move(verdict));
    }
    const uint64_t delivered_count = in.u64();
    for (uint64_t i = 0; i < delivered_count && !in.truncated; ++i) {
        const uint64_t cr3 = in.u64();
        const uint64_t seq = in.u64();
        result.state.delivered.insert({cr3, seq});
    }
    if (in.truncated) {
        // The CRC matched but the content over-ran its frame: a
        // writer/reader version skew or corruption the CRC cannot
        // arbitrate. Refuse the bytes rather than trust a prefix.
        result.state = RecoveredState{};
        result.status = Status::BadChecksum;
    }
    return result;
}

SnapshotLoadResult
loadSnapshot(const std::vector<uint8_t> &bytes)
{
    return loadSnapshot(bytes.data(), bytes.size());
}

} // namespace flowguard::recovery

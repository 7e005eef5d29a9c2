/**
 * @file
 * Compacted recovery snapshots.
 *
 * An append-only journal grows without bound; the snapshot is its
 * periodic fold. RecoveredState::apply() defines the fold: credit
 * commit deltas accumulate in order, module unloads/rebases prune the
 * pairs they retired, verdict deliveries cancel their commits (the
 * replay-side dedup), and checked endpoints raise the per-process
 * high-water mark. A delta holds only what the runtime overlay did
 * not hold yet, so a process's pairs and n-grams are each distinct
 * until an unload revokes credit and the pair is earned again.
 *
 * The supervisor keeps that fold live, applying each record as it
 * journals it, so compaction only serializes it. The durable bytes
 * (snapshot + the journal's intact prefix) are folded afresh at warm
 * restart, which adopts the result as the live fold, and when they
 * changed behind the fold's back (StateJournal::edits()).
 *
 * The serialized form uses the journal's byte codec and CRC framing,
 * and loading is recoverable in the same vocabulary as
 * tryLoadProfile: a truncated or bit-flipped snapshot yields
 * Truncated / BadChecksum / BadMagic, never an abort — the supervisor
 * falls back to an empty state plus whatever the journal still holds.
 */

#ifndef FLOWGUARD_RECOVERY_SNAPSHOT_HH
#define FLOWGUARD_RECOVERY_SNAPSHOT_HH

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "recovery/journal.hh"

namespace flowguard::recovery {

/** Per-process durable protection state. */
struct ProcessSnapshot
{
    /** The (edge, TNT) pairs of the process's commit deltas, in
     *  commit order, with unload/rebase-retired ranges already
     *  pruned: `creditCount` transitions in wire form
     *  (encodeTransitions), which costs a fold no allocation per
     *  transition and a snapshot one copy. */
    std::vector<uint8_t> credits;
    uint64_t creditCount = 0;
    /** The n-gram hashes of its commit deltas, in commit order. An
     *  unload does not prune them: the live path index keeps them. */
    std::vector<uint64_t> paths;
    /** Highest endpoint sequence number that was fully checked. */
    uint64_t seqHighWater = 0;
};

/** The folded protection state a warm restart rebuilds from. */
struct RecoveredState
{
    std::map<uint64_t, ProcessSnapshot> processes;
    /** Committed kills whose delivery never happened — replay must
     *  re-queue exactly these, in order. */
    std::vector<JournalRecord> undeliveredVerdicts;
    /** (cr3, seq) pairs already delivered: the dedup set. */
    std::set<std::pair<uint64_t, uint64_t>> delivered;
    /** Commits cancelled by a matching delivery during the fold. */
    uint64_t dedupDropped = 0;

    /** Folds one journal record into the state. */
    void apply(const JournalRecord &record);
};

/** Serializes the state: magic, CRC-framed body, wire encoding.
 *  `buffer`'s bytes are replaced and its capacity reused. */
std::vector<uint8_t> serializeSnapshot(const RecoveredState &state,
                                       std::vector<uint8_t> buffer = {});

struct SnapshotLoadResult
{
    RecoveredState state;
    ProfileLoadResult::Status status = ProfileLoadResult::Status::Ok;
};

/**
 * Loads a snapshot tolerantly. An empty buffer is Ok with empty
 * state (first boot); damage is classified, never fatal.
 */
SnapshotLoadResult loadSnapshot(const uint8_t *data, size_t size);

SnapshotLoadResult loadSnapshot(const std::vector<uint8_t> &bytes);

} // namespace flowguard::recovery

#endif // FLOWGUARD_RECOVERY_SNAPSHOT_HH

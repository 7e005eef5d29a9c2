/**
 * @file
 * Profile serialization.
 *
 * §3.3: "before the distribution of the protected software, the
 * static CFG generation and dynamic training are securely conducted"
 * — i.e., the trained artifact ships with the program and the
 * deployment machine only loads it. A profile stores the training
 * annotations (edge credits, TNT sequences, path hashes) keyed by
 * fingerprints of the code; loading re-runs the cheap static pipeline
 * and replays the annotations, refusing mismatched binaries.
 *
 * One on-disk format (version 3), sectioned per module. Each
 * module's training data is keyed by its relocation-invariant
 * fingerprint and its edges are stored module-relative, so one
 * updated library only skips its own section (and the cross-module
 * edges touching it) while the rest of the profile still applies —
 * and the profile is valid under any ASLR layout. Any other version
 * reads as BadVersion. The fields are the journal's little-endian
 * codec (support/byte_codec.hh): the writer encodes the profile into
 * a buffer and writes it once, and the loader reads the stream whole
 * and bound-checks every count in it.
 *
 * A profile holds trained state only. Credit, TNT sequences and path
 * hashes that a protected run learned (the runtime overlay) stay out
 * of it, so a profile saved after a run holds what one saved before
 * it held.
 *
 * Loading is recoverable: tryLoadProfile() reports what happened in
 * a ProfileLoadResult instead of aborting, so a deployment can fall
 * back to retraining. loadProfile() keeps the historical fatal
 * behavior on top of it.
 */

#ifndef FLOWGUARD_CORE_PROFILE_IO_HH
#define FLOWGUARD_CORE_PROFILE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/flowguard.hh"

namespace flowguard {

/** What a profile load did — recoverable, never fatal. */
struct ProfileLoadResult
{
    enum class Status : uint8_t {
        Ok,
        IoError,                ///< stream unreadable / file missing
        BadMagic,               ///< not a FlowGuard profile
        BadVersion,             ///< version this build cannot read
        Truncated,              ///< stream ended mid-record
        ModuleMismatch,         ///< no module section applied
        /** A CRC-framed structure (recovery snapshot) failed its
         *  checksum: bytes are present but cannot be trusted. */
        BadChecksum,
    };

    Status status = Status::Ok;
    /** Human-readable detail for non-Ok statuses. */
    std::string message;
    /** Format version encountered (0 when unreadable). */
    uint32_t version = 0;
    size_t modulesLoaded = 0;   ///< sections applied
    size_t modulesSkipped = 0;  ///< sections refused (fingerprint)
    size_t edgesApplied = 0;    ///< annotations replayed onto edges
    size_t edgesMissed = 0;     ///< annotations with no current edge

    bool ok() const { return status == Status::Ok; }
};

const char *profileStatusName(ProfileLoadResult::Status status);

/** Writes the guard's trained state, without the runtime overlay.
 *  Requires analyze(). */
void saveProfile(const FlowGuard &guard, std::ostream &out);

/**
 * Loads trained state into `guard` (analyze() is run if needed).
 * Never aborts: every failure mode comes back as a
 * ProfileLoadResult.
 */
ProfileLoadResult tryLoadProfile(FlowGuard &guard, std::istream &in);

/**
 * Historical strict API: tryLoadProfile, but any non-Ok outcome is
 * fatal.
 */
void loadProfile(FlowGuard &guard, std::istream &in);

} // namespace flowguard

#endif // FLOWGUARD_CORE_PROFILE_IO_HH

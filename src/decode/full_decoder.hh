/**
 * @file
 * Full (instruction-flow-layer) decoder — the engine behind the slow
 * path and behind the paper's §2 "decoding is ~230x" measurement.
 *
 * Mirrors the Intel reference decoder's instruction flow layer: it
 * walks the program binaries instruction by instruction, consuming a
 * TNT bit at every conditional branch and a TIP payload at every
 * indirect branch, and thereby reconstructs the complete control flow
 * including all the direct transfers IPT never logged.
 *
 * It sits on the packet layer, as libipt's instruction-flow decoder
 * sits on its query decoder: it never parses bytes itself, but walks
 * the steps and TNT slices of a fast_decoder.hh decode. The slow path
 * hands it the window the fast decode already anchored; the byte form
 * below decodes the packet layer first.
 *
 * Trace loss (OVF packets, undecodable spans) does not fail the
 * decode: the walk re-anchors at the next packet that names an
 * address and reconstructs every surviving window, recording where
 * the gaps fall so checkers can reset cross-gap state (e.g. the
 * shadow stack) instead of reporting false violations.
 */

#ifndef FLOWGUARD_DECODE_FULL_DECODER_HH
#define FLOWGUARD_DECODE_FULL_DECODER_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cpu/cost_model.hh"
#include "cpu/events.hh"
#include "decode/fast_decoder.hh"
#include "isa/program.hh"

namespace flowguard::telemetry {
class Telemetry;
} // namespace flowguard::telemetry

namespace flowguard::decode {

/** One reconstructed control transfer. */
struct DecodedBranch
{
    cpu::BranchKind kind = cpu::BranchKind::DirectJump;
    uint64_t source = 0;
    uint64_t target = 0;
};

/** Outcome of a full decode. */
struct FullDecodeResult
{
    enum class Status : uint8_t {
        Ok,             ///< all packets consumed coherently
        NoSync,         ///< no usable sync point in the buffer
        Desync,         ///< packets inconsistent with the binaries
        BadFlow,        ///< walked off mapped code
    };

    Status status = Status::Ok;
    std::vector<DecodedBranch> branches;
    /** Instructions walked — the unit the 230x cost scales with. */
    uint64_t instructionsWalked = 0;
    /** Where the reconstruction started (first known IP). */
    uint64_t startIp = 0;
    std::string error;

    // Loss accounting (§7.1.2 degraded modes), as the packet layer
    // reported it.
    /** Hardware OVF packets seen in the stream (for a tail-anchored
     *  window, including the OVF right before its PSB). */
    uint64_t overflows = 0;
    /** Skip-to-next-PSB recoveries from malformed bytes. */
    uint64_t resyncs = 0;
    /** Undecodable bytes skipped during those recoveries. */
    uint64_t bytesSkipped = 0;
    /**
     * Indices into `branches` where a trace gap immediately precedes
     * the entry: each such branch opens a fresh window whose link to
     * everything earlier is unknowable (an index equal to
     * branches.size() means the trace ended inside a gap). Checkers
     * must reset cross-branch state — shadow stacks above all — at
     * these points.
     */
    std::vector<uint64_t> lossBranchIndices;

    bool ok() const { return status == Status::Ok; }

    /** True when any part of the stream was lost or undecodable. */
    bool lossDetected() const { return overflows > 0 || resyncs > 0; }
};

/**
 * Reconstructs instruction-level flow from a packet-layer decode.
 *
 * The walk starts at the first addressable sync point: the target of
 * the first PGE or TIP step decoded after a PSB (conditional outcomes
 * before that point are unusable and skipped, as in any mid-stream
 * attach). Charges cost::sw_full_decode_per_inst per instruction into
 * account->decode.
 */
FullDecodeResult decodeInstructionFlow(
    const isa::Program &program, const FastDecodeResult &flow,
    cpu::CycleAccount *account = nullptr,
    telemetry::Telemetry *telemetry = nullptr, uint64_t cr3 = 0);

/** The walk over decodePacketLayer(data); the packet decode itself is
 *  neither charged nor traced. */
FullDecodeResult decodeInstructionFlow(
    const isa::Program &program, std::span<const uint8_t> data,
    cpu::CycleAccount *account = nullptr,
    telemetry::Telemetry *telemetry = nullptr, uint64_t cr3 = 0);

} // namespace flowguard::decode

#endif // FLOWGUARD_DECODE_FULL_DECODER_HH

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
 * hands it the window its TraceCursor decoded, through a FlowWalk that
 * keeps the walk across windows and walks only the steps appended
 * since; any other caller decodes its bytes with a cursor first and
 * walks cursor.window().
 *
 * Like libipt's block decoder, the walk moves a straight-line run at a
 * time: between two control-flow instructions nothing reads the trace,
 * so it jumps to the run's end (isa::Program::runEnd) and counts the
 * instructions it skipped. The count, the walk budget and where a run
 * leaves mapped code are exactly what a walk one instruction at a
 * time gives, so the per-instruction decode charge is unchanged.
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

namespace detail {

/** What a walk had produced at some point of it. */
struct WalkCounts
{
    size_t branches = 0;
    uint64_t instructions = 0;
    /** TIPs the walk consumed at indirect branches (each is priced). */
    uint64_t tips = 0;
    /** Entries of lossBranchIndices. */
    size_t losses = 0;
};

/** Where a walk stood at the top of a loop iteration: what it had
 *  produced, the instruction it was at and its place in the steps. */
struct WalkPoint
{
    WalkCounts counts;
    uint64_t ip = 0;
    uint32_t index = 0;
    /** The next step, the next outcome, and whether the loss in front
     *  of them was passed. */
    size_t step = 0;
    size_t bit = 0;
    bool lossPassed = false;
};

/**
 * A PSB record as the walk passed it: `reached` when, at the first loop
 * top past the first TIP/PGE after that PSB, the walk stood just past
 * that step at its address, where a fresh walk of a window anchored at
 * that PSB starts; `counts` is what the walk had produced there.
 */
struct WalkMark
{
    uint64_t offset = 0;    ///< stream offset of the PSB
    bool reached = false;
    WalkCounts counts;
};

} // namespace detail

/**
 * An instruction walk kept beside a TraceCursor, so that a walk of the
 * cursor's next window walks only the steps appended since (the slow
 * path's window of ~100 TIPs was otherwise re-walked from its anchor,
 * though the previous check had walked most of it).
 *
 * It keeps the last walk's branches, loss indices and counts, where
 * the walk stood at the top of its last loop iteration (the trace can
 * end inside one, e.g. between a syscall's entry and its exit), and a
 * mark for each of the cursor's PSB records it passed. A fresh walk of
 * a window anchored at a record starts just past the record's first
 * TIP/PGE, at its address; from a loop top where the kept walk stood
 * there, the two walks are one. So a window anchored at a reached
 * record keeps the branches from its mark on, rebased, rolls back to
 * the top of the last iteration and walks on over the new steps.
 *
 * The fresh walk is its cold start: on a new cursor cold start, an
 * anchor whose record the kept walk did not reach, or after a walk
 * that did not end Ok. So walk() equals decodeInstructionFlow()
 * of the cursor's window in every field, and is charged and traced as
 * that walk: for the window's whole walk, not for the steps it walked.
 */
class FlowWalk
{
  public:
    /** The walk of cursor.window(), valid until the next walk. */
    const FullDecodeResult &walk(const isa::Program &program,
                                 const TraceCursor &cursor,
                                 cpu::CycleAccount *account = nullptr,
                                 telemetry::Telemetry *telemetry = nullptr,
                                 uint64_t cr3 = 0);

  private:
    /** Trims the kept walk to the window's anchor and rolls it back to
     *  its last loop top; false when only a fresh walk can go on. */
    bool resume(const TraceCursor &cursor);

    FullDecodeResult _result;
    /** Where the kept walk stood at the top of its last iteration. */
    detail::WalkPoint _top;
    /** One per cursor record the kept walk passed, in record order. */
    std::vector<detail::WalkMark> _marks;
    /** The cursor origin _top's step and outcome places count from. */
    TraceCursor::Origin _origin;
    /** The kept walk ended Ok, so a later window may go on with it. */
    bool _resumable = false;
};

} // namespace flowguard::decode

#endif // FLOWGUARD_DECODE_FULL_DECODER_HH

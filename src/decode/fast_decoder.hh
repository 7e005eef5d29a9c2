/**
 * @file
 * Fast (packet-layer) decoder — the fast-path front end of §5.3.
 *
 * Parses raw IPT bytes and extracts only the control-flow packets
 * (TIP/TNT plus the PGE/PGD/FUP context markers), without ever
 * consulting the binaries. It is the one packet loop: the full
 * decoder and the trainer consume its result. PSB packets serve as
 * sync points, so decoding can start at any PSB and independent
 * segments can be processed in parallel.
 *
 * The runtime fast path decodes only the tail of the buffer: the PSB
 * search runs backward from the end, one segment at a time, and stops
 * once the suffix holds enough TIPs, so a check never touches the
 * bytes in front of its window. Conditional outcomes live in one bit
 * pool per result that steps and transitions slice into, and the
 * in-place forms (decodeRecentTipsInto, extractTransitionViews) reuse
 * a caller's scratch, so a repeated check allocates nothing.
 *
 * The decoder never trusts its input: malformed bytes and hardware
 * OVF markers both trigger a resynchronization to the next validated
 * PSB, with the skipped span accounted in the result's loss counters
 * and the TIP adjacency broken so no edge is fabricated across the
 * gap. It always terminates, whatever the buffer holds.
 */

#ifndef FLOWGUARD_DECODE_FAST_DECODER_HH
#define FLOWGUARD_DECODE_FAST_DECODER_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cpu/cost_model.hh"
#include "trace/ipt_packets.hh"

namespace flowguard::telemetry {
class Telemetry;
} // namespace flowguard::telemetry

namespace flowguard::decode {

/** Classes of flow-relevant packets surfaced to checkers. */
enum class StepKind : uint8_t { Tip, Pge, Pgd, Fup };

/**
 * One flow step: a TIP-class packet plus the TNT outcomes observed
 * since the previous step (the paper's per-edge TNT association).
 * The outcomes are a slice of the owning result's bit pool; read them
 * through FastDecodeResult::tntBefore().
 */
struct FlowStep
{
    StepKind kind = StepKind::Tip;
    bool ipSuppressed = false;
    /** True when trace was lost (OVF or resync) since the previous
     *  step: this step does not form an edge with its predecessor. */
    bool lossBefore = false;
    uint64_t ip = 0;
    /** Conditional outcomes since the previous step (or since the
     *  last loss after it), oldest first:
     *  tntBits[tntOffset, tntOffset + tntLength). */
    uint32_t tntOffset = 0;
    uint32_t tntLength = 0;
};

/** Result of a packet-layer decode. */
struct FastDecodeResult
{
    std::vector<FlowStep> steps;        ///< chronological
    /**
     * Conditional outcomes in stream order, one byte per bit
     * (1 = taken). Each step's slice starts where the previous one
     * ends, unless trace was lost in between: then the outcomes that
     * preceded the first loss sit between the two (the instruction
     * walk replays them; a fast-path transition does not), and those
     * between two losses are not kept.
     */
    std::vector<uint8_t> tntBits;
    /** Where the outcomes after the last step (and its losses) start. */
    uint32_t trailingOffset = 0;
    /** True when trace was lost after the last step. */
    bool lossAtEnd = false;
    /** Leading steps decoded before any PSB; their IPs are not
     *  anchored, as in a ring that wrapped mid-packet. */
    uint32_t unsyncedSteps = 0;
    uint64_t bytesScanned = 0;
    uint64_t packetCount = 0;
    bool malformed = false;
    /** Number of PSB sync points encountered. */
    uint64_t psbCount = 0;
    /** Byte offset of the sync point decoding started from. */
    uint64_t startOffset = 0;

    // Loss accounting (§7.1.2 degraded modes).
    /** Hardware OVF packets seen (packets dropped at the source). */
    uint64_t overflows = 0;
    /** Skip-to-next-PSB recoveries from malformed bytes. */
    uint64_t resyncs = 0;
    /** Undecodable bytes skipped during those recoveries. */
    uint64_t bytesSkipped = 0;

    /** The conditional outcomes `step` carries, oldest first. */
    std::span<const uint8_t>
    tntBefore(const FlowStep &step) const
    {
        return {tntBits.data() + step.tntOffset, step.tntLength};
    }

    /** TNT after the last step and any loss that followed it. */
    std::span<const uint8_t>
    trailingTnt() const
    {
        return std::span<const uint8_t>(tntBits).subspan(trailingOffset);
    }

    /** True when any part of the window was lost or undecodable. */
    bool
    lossDetected() const
    {
        return overflows > 0 || resyncs > 0 || malformed;
    }

    /** Empties the result, keeping its capacity for the next decode. */
    void clear();
};

/**
 * Decodes the entire buffer at the packet layer.
 * Charges cost::sw_packet_decode_per_byte into account->decode.
 *
 * `telemetry`, when given, gets a FastDecode span covering the decode
 * plus Overflow/Resync instants for any loss the window carried —
 * attributed to process `cr3`.
 */
FastDecodeResult decodePacketLayer(std::span<const uint8_t> data,
                                   cpu::CycleAccount *account = nullptr,
                                   telemetry::Telemetry *telemetry = nullptr,
                                   uint64_t cr3 = 0);

/**
 * Decodes only enough of the tail of the buffer to recover at least
 * `min_tips` TIP packets (not counting PGE/PGD/FUP), starting from the
 * latest possible PSB sync point. This is what the runtime fast path
 * uses: it never pays for the whole ToPA buffer.
 *
 * The PSB search runs backward from the end of the buffer. Each
 * segment between two sync points is first only counted (its TIPs,
 * no steps built); once the suffix holds `min_tips` TIPs it is
 * decoded in one chronological pass. The sync points found are those
 * a forward scan accepts: the last 16 bytes of each run of PSB byte
 * pairs. `bytesScanned` is what both passes read, and is what the
 * decode is charged for.
 *
 * The returned steps are chronological and cover the suffix of the
 * trace from the chosen sync point. If the buffer holds fewer TIPs,
 * everything available is returned. A buffer without any PSB is
 * decoded whole, from byte 0.
 */
FastDecodeResult decodeRecentTips(std::span<const uint8_t> data,
                                  size_t min_tips,
                                  cpu::CycleAccount *account = nullptr,
                                  telemetry::Telemetry *telemetry = nullptr,
                                  uint64_t cr3 = 0);

/** decodeRecentTips() into `out`, reusing its capacity. */
void decodeRecentTipsInto(FastDecodeResult &out,
                          std::span<const uint8_t> data, size_t min_tips,
                          cpu::CycleAccount *account = nullptr,
                          telemetry::Telemetry *telemetry = nullptr,
                          uint64_t cr3 = 0);

/**
 * One ITC-CFG-level transition: consecutive TIP targets with the
 * conditional outcomes observed between them. PGE/PGD/FUP context
 * markers (syscalls, context switches) are transparent: they do not
 * break TIP adjacency, and TNT bits accumulate across them.
 *
 * This form owns its outcomes: it is what the verdict cache stages,
 * the journal persists and warm restarts replay.
 */
struct TipTransition
{
    uint64_t from = 0;      ///< 0 for the first TIP in the window
    uint64_t to = 0;
    std::vector<uint8_t> tnt;   ///< outcomes between from and to
};

/**
 * A TipTransition read in place: `tnt` slices the bit pool of the
 * decode result it came from, and is valid while that result lives
 * unchanged.
 */
struct TransitionView
{
    uint64_t from = 0;
    uint64_t to = 0;
    std::span<const uint8_t> tnt;
};

/** Folds a packet-layer decode into transition views, replacing the
 *  contents of `out` (its capacity is reused). */
void extractTransitionViews(const FastDecodeResult &flow,
                            std::vector<TransitionView> &out);

/** Folds a packet-layer decode into owned TIP transitions. */
std::vector<TipTransition>
extractTipTransitions(const FastDecodeResult &flow);

} // namespace flowguard::decode

#endif // FLOWGUARD_DECODE_FAST_DECODER_HH

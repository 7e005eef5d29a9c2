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
 * A window is anchored at a PSB: the PSB search runs backward from the
 * end, one segment at a time, and stops once the suffix holds enough
 * TIPs, so a decode never touches the bytes in front of its window.
 * On a live ToPA stream the runtime fast path keeps that decode in a
 * TraceCursor and parses only the bytes written since its last check;
 * the anchored decode becomes the cursor's cold start. Conditional
 * outcomes live in one bit pool per result that steps and transitions
 * slice into, and the in-place forms (decodeRecentTipsInto,
 * TraceCursor, extractTransitionViews) reuse their scratch, so a
 * repeated check allocates nothing.
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
 * latest possible PSB sync point. This is the anchored decode every
 * check's window comes from: it never pays for the whole ToPA buffer.
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
 * decoded whole, from byte 0, when it starts its stream
 * (`stream_offset` 0, what a bare buffer is taken to do); cut from
 * further on, it yields no steps and one sync loss (a resync that
 * skipped every byte), which the loss policy handles as it does an
 * OVF: no PSB anchors its IPs, so any edge read from it would be
 * fabricated.
 */
FastDecodeResult decodeRecentTips(std::span<const uint8_t> data,
                                  size_t min_tips,
                                  cpu::CycleAccount *account = nullptr,
                                  telemetry::Telemetry *telemetry = nullptr,
                                  uint64_t cr3 = 0);

/** decodeRecentTips() into `out`, reusing its capacity, for a buffer
 *  that starts `stream_offset` bytes into its stream. */
void decodeRecentTipsInto(FastDecodeResult &out,
                          std::span<const uint8_t> data, size_t min_tips,
                          cpu::CycleAccount *account = nullptr,
                          telemetry::Telemetry *telemetry = nullptr,
                          uint64_t cr3 = 0, uint64_t stream_offset = 0);

namespace detail {

/** Where an emit pass stopped: what a later pass over the same
 *  stream needs to go on from there as if it had never stopped. */
struct ParseState
{
    uint64_t lastIp = 0;
    /** Pool offset where the outcomes since the last step (and its
     *  last loss) start. */
    size_t pending = 0;
    bool lossPending = false;
    bool synced = false;
    /** Buffer offset of the first byte not parsed: the end, or the
     *  start of a packet the buffer cuts. */
    size_t stop = 0;
};

/** What a counting pass saw: TIPs, plus the step and outcome totals
 *  an emit pass over the same bytes reserves room for. */
struct Counts
{
    size_t tips = 0;
    size_t steps = 0;
    size_t bits = 0;
};

/** How far the anchored search walked back from a buffer's end. */
struct AnchorSearch
{
    /** A search that has not left the end of a `size`-byte buffer. */
    explicit AnchorSearch(size_t size) : limit(size), segEnd(size) {}

    /** Where the walk over sync points goes on from. */
    size_t limit;
    /** End of the next segment to count. */
    size_t segEnd;
    /** The last sync point counted (SIZE_MAX: none yet). */
    size_t anchor = SIZE_MAX;
    Counts counts;
    /** Bytes the counting read. */
    uint64_t scanned = 0;
};

/** A PSB an emit pass crossed, and what the decode held there. */
struct PsbRecord
{
    uint64_t offset = 0;        ///< stream offset of the PSB
    size_t firstStep = 0;       ///< steps decoded before it
    size_t bitsAt = 0;          ///< outcomes pooled before it
    uint64_t overflowsAt = 0;   ///< OVF packets parsed before it
    uint64_t packetsAt = 0;     ///< packets parsed before it
    /** Trace was lost between it and the next step. */
    bool lossAfter = false;
};

/** Where folding steps into transitions stands: the previous TIP's
 *  address (0 at a window's head and after a loss), and where the next
 *  transition's outcomes start in the pool. */
struct Fold
{
    uint64_t prev = 0;
    size_t from = 0;
};

} // namespace detail

/**
 * One ITC-CFG-level transition read in place: consecutive TIP targets
 * with the conditional outcomes observed between them (see
 * TipTransition). `tnt` slices the bit pool of the decode result it
 * came from, and is valid while that result lives unchanged.
 */
struct TransitionView
{
    uint64_t from = 0;      ///< 0 for the first TIP in the window
    uint64_t to = 0;
    std::span<const uint8_t> tnt;
};

/**
 * A decode kept over one live trace stream, so that a check parses
 * only the bytes written since the last one (§5.3: the fast path
 * decodes only the tail of the ToPA buffer).
 *
 * It holds the steps and outcome pool from the current window's
 * anchor up to the last whole packet in the stream, a record of each
 * PSB in that span (its stream offset, and the step, outcome, OVF and
 * packet counts at it), and the parser's last-IP, pending-outcome and
 * loss state at that byte. A decode parses [cursor, end of view),
 * then picks the anchor the anchored search would pick (the latest
 * PSB still in the view whose suffix holds `min_tips` TIPs) from the
 * records, trims the front to it, and re-slices the first step as a
 * decode starting there would have it.
 *
 * The anchored decode is its cold start. It runs on the first decode;
 * on a new stream identity (a new Topa, or one cleared since); when
 * the anchor may lie further back than the records go (a wider
 * window, or a whole-buffer one, `min_tips` SIZE_MAX, unless the first
 * record is known to be the oldest sync point left in the view);
 * when a wrap has overwritten the resume point; when the new bytes
 * alone hold the window (its anchor is found among them by the same
 * backward search, which the cold start then goes on with); and after
 * bytes that would not parse. So the window equals
 * decodeRecentTipsInto(·, view.bytes, min_tips, …, view.offset) in
 * every field but bytesScanned, which counts the bytes this decode
 * read, is what it is charged for, and is never more than the fresh
 * decode's unless a wider window cold-starts after parsing. A view
 * whose stream identity is 0 stands alone: it always cold-starts.
 *
 * Beside the steps it keeps the window's transitions (views()), as
 * extractTransitionViews() folds them: a decode folds only the steps
 * it appended, a trim drops the views of the steps it drops, and the
 * view that then leads the window is rebuilt as a window's head (no
 * source TIP, outcomes from the re-sliced first step). Every other
 * view stays as it was, so a consumer may keep what it learned about
 * a view for as long as the view is kept (see Origin).
 */
class TraceCursor
{
  public:
    /** The window of `view`, valid until the next decode. */
    const FastDecodeResult &decode(const trace::StreamView &view,
                                   size_t min_tips,
                                   cpu::CycleAccount *account = nullptr,
                                   telemetry::Telemetry *telemetry =
                                       nullptr,
                                   uint64_t cr3 = 0);

    /** The window the last decode returned. */
    const FastDecodeResult &window() const { return _flow; }

    /** The PSBs from the window's anchor (the first) to the end of the
     *  decode; none for bytes that stand alone. */
    std::span<const detail::PsbRecord> records() const { return _psbs; }

    /** The window's transitions: extractTransitionViews(window()),
     *  valid until the next decode. */
    std::span<const TransitionView> views() const { return _views; }

    /**
     * Where the window sits in the decode kept since the last cold
     * start: which cold start that was (new at every one), and how
     * many steps, outcomes and views have been dropped from the front
     * since. A walk of an earlier window of the same cold start finds
     * its steps and outcomes that many places further down, and
     * views()[i] is the view views()[i + dropped] of that window was,
     * except the first, which a decode may rebuild as the head.
     */
    struct Origin
    {
        uint64_t coldStart = 0;
        uint64_t steps = 0;
        uint64_t bits = 0;
        uint64_t views = 0;
    };

    const Origin &origin() const { return _origin; }

  private:
    /** The anchored decode, going on with `search`. */
    void coldStart(const trace::StreamView &view, size_t min_tips,
                   const detail::AnchorSearch &search);
    /** Parses the new bytes and picks the window; false when only a
     *  cold start can. `search` holds what of the anchored search it
     *  did, and `parsed` what else it read. */
    bool resume(const trace::StreamView &view, size_t min_tips,
                uint64_t &parsed, detail::AnchorSearch &search);
    bool selectWindow(const trace::StreamView &view, size_t min_tips);
    /** Forgets what precedes the `index`th PSB record. */
    void dropBefore(size_t index);
    /** Brings the views up to the steps: rebuilds the head after a
     *  trim and folds the new steps. */
    void foldViews();

    /** The decode from the first record's PSB; between decodes its
     *  counters are the window's. */
    FastDecodeResult _flow;
    std::vector<detail::PsbRecord> _psbs;
    detail::ParseState _state;
    uint64_t _stream = 0;
    /** Stream offset where parsing goes on. */
    uint64_t _end = 0;
    /** OVF packets and packets parsed since the first record. */
    uint64_t _overflows = 0;
    uint64_t _packets = 0;
    /** False until a clean cold start: then a decode may go on. */
    bool _live = false;
    /** The first record is the oldest sync point its view holds: the
     *  search that picked it ran out of older ones. */
    bool _oldest = false;
    Origin _origin;

    /** The window's transitions; their outcomes point into _flow's
     *  pool, and move with it when it grows or is trimmed. */
    std::vector<TransitionView> _views;
    /** Steps folded into _views, and where the fold stands after them. */
    size_t _folded = 0;
    detail::Fold _fold;
    /** A trim since the last fold: the head must be rebuilt. */
    bool _trimmed = false;
};

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

/** Folds a packet-layer decode into transition views, replacing the
 *  contents of `out` (its capacity is reused). */
void extractTransitionViews(const FastDecodeResult &flow,
                            std::vector<TransitionView> &out);

/** Folds a packet-layer decode into owned TIP transitions. */
std::vector<TipTransition>
extractTipTransitions(const FastDecodeResult &flow);

} // namespace flowguard::decode

#endif // FLOWGUARD_DECODE_FAST_DECODER_HH

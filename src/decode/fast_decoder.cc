#include "decode/fast_decoder.hh"

#include <algorithm>

#include "telemetry/telemetry.hh"

namespace flowguard::decode {

using trace::Packet;
using trace::PacketKind;
using trace::PacketParser;

namespace {

void
charge(cpu::CycleAccount *account, uint64_t bytes)
{
    if (account)
        account->decode += static_cast<double>(bytes) *
                           cpu::cost::sw_packet_decode_per_byte;
}

/** FastDecode span + loss instants; call after charge() so the span
 *  end carries the decode's own modeled cycles. */
void
report(telemetry::Telemetry *tel, uint64_t cr3, uint64_t begin,
       const FastDecodeResult &result)
{
    if (!tel)
        return;
    tel->completeSpan(telemetry::SpanKind::FastDecode, cr3, 0, begin,
                      tel->now(), 0, result.steps.size(),
                      result.bytesScanned);
    if (result.overflows) {
        tel->instant(telemetry::EventKind::Overflow, cr3, 0,
                     result.overflows);
    }
    if (result.resyncs || result.bytesSkipped) {
        tel->instant(telemetry::EventKind::Resync, cr3, 0,
                     result.resyncs, result.bytesSkipped);
    }
}

using trace::detail::psb_len;

bool
psbPairAt(const uint8_t *data, size_t pos)
{
    return data[pos] == trace::detail::psb_byte0 &&
           data[pos + 1] == trace::detail::psb_byte1;
}

/**
 * The latest sync point whose PSB run lies below `limit`, or SIZE_MAX
 * when there is none; `limit` then moves to the start of that run, so
 * repeated calls walk the sync points from the tail to the head.
 *
 * A forward scan (trace::findPsbOffsets) accepts the last 16 bytes of
 * each maximal run of 0x02 0x82 pairs that is at least 16 bytes long.
 * Such runs never overlap or touch, so the first one met walking down
 * is the latest, and its bounds are found by extending the pair met
 * both ways: the same sync points, found from the other end. A run of
 * 16 bytes covers every residue mod 16, so probing one byte in 16 is
 * enough to meet it.
 */
size_t
previousPsb(const uint8_t *data, size_t size, size_t &limit)
{
    using trace::detail::psb_byte0;
    using trace::detail::psb_byte1;
    // `probe` is one past the byte probed next.
    size_t probe = limit;
    while (probe > 0) {
        --probe;
        const size_t next_probe =
            probe >= psb_len - 1 ? probe - (psb_len - 1) : 0;
        // The PSB pair, if any, that holds the probed byte.
        size_t pair = SIZE_MAX;
        if (data[probe] == psb_byte0 && probe + 1 < size &&
            data[probe + 1] == psb_byte1)
            pair = probe;
        else if (data[probe] == psb_byte1 && probe >= 1 &&
                 data[probe - 1] == psb_byte0)
            pair = probe - 1;
        if (pair == SIZE_MAX) {
            probe = next_probe;
            continue;
        }
        size_t start = pair;
        while (start >= 2 && psbPairAt(data, start - 2))
            start -= 2;
        size_t end = pair + 2;
        while (end + 2 <= size && psbPairAt(data, end))
            end += 2;
        if (end - start >= psb_len) {
            limit = start;
            return end - psb_len;
        }
        // A short run: no sync point can overlap it, so resume below
        // whichever is lower, its start or the next probe.
        probe = std::min(next_probe, start);
    }
    limit = 0;
    return SIZE_MAX;
}

/** What a counting pass saw: TIPs, plus the step and outcome totals
 *  an emit pass over the same bytes reserves room for. */
struct Counts
{
    size_t tips = 0;
    size_t steps = 0;
    size_t bits = 0;
};

/**
 * Parses data[start, min(end, size)), resynchronizing at the next
 * validated PSB after malformed bytes. With `Emit` the steps, outcomes
 * and loss counters are appended to `result`; without, the pass builds
 * nothing and only adds to `counts`. Both modes follow the same
 * packets, so they scan the same bytes. Returns the bytes scanned.
 */
template <bool Emit>
uint64_t
parse(std::span<const uint8_t> data, size_t start, size_t end,
      FastDecodeResult &result, Counts &counts)
{
    const size_t limit = std::min(data.size(), end);
    PacketParser parser(data.data(), limit);
    parser.seek(start);

    // Outcomes since the last step (and its last loss) start here in
    // the bit pool.
    size_t pending = result.tntBits.size();
    bool loss_pending = false;
    // Steps before the first PSB carry IPs no PSB anchored.
    bool synced = false;
    // A loss breaks adjacency: outcomes before the first one since the
    // last step stay in the pool, ahead of the next slice, and those
    // between two losses pair with nothing.
    auto lose = [&] {
        if (loss_pending)
            result.tntBits.resize(pending);
        pending = result.tntBits.size();
        loss_pending = true;
    };
    Packet pkt;
    while (true) {
        if (!parser.next(pkt)) {
            if (!parser.bad())
                break;      // clean end of buffer
            // Malformed bytes: resynchronize at the next validated
            // PSB. Anything in between is unrecoverable — account it
            // and break TIP adjacency across the gap.
            const size_t bad_at = static_cast<size_t>(parser.offset());
            const size_t psb =
                trace::findNextPsb(data.data(), limit, bad_at + 1);
            if constexpr (Emit)
                result.malformed = true;
            if (psb == SIZE_MAX) {
                if constexpr (Emit)
                    result.bytesSkipped += limit - bad_at;
                parser.seek(limit);
                break;
            }
            if constexpr (Emit) {
                result.bytesSkipped += psb - bad_at;
                ++result.resyncs;
                lose();
            }
            parser.seek(psb);
            continue;
        }
        if constexpr (!Emit) {
            counts.tips += pkt.kind == PacketKind::Tip ? 1 : 0;
            counts.bits += pkt.kind == PacketKind::Tnt ? pkt.tntCount : 0;
            counts.steps += pkt.kind == PacketKind::Tip ||
                pkt.kind == PacketKind::TipPge ||
                pkt.kind == PacketKind::TipPgd ||
                pkt.kind == PacketKind::Fup;
            continue;
        }
        ++result.packetCount;
        switch (pkt.kind) {
          case PacketKind::Pad:
          case PacketKind::PsbEnd:
            break;
          case PacketKind::Psb:
            synced = true;
            break;
          case PacketKind::Ovf:
            // The hardware dropped packets here.
            ++result.overflows;
            lose();
            break;
          case PacketKind::Tnt: {
            // One resize, then plain stores: a push_back per outcome
            // re-checks capacity, and its byte store may alias the
            // vector, whose pointers are then reloaded every time.
            auto &bits = result.tntBits;
            const size_t at = bits.size();
            bits.resize(at + pkt.tntCount);
            uint8_t *out = bits.data() + at;
            for (int i = 0; i < pkt.tntCount; ++i)
                out[i] = (pkt.tntBits >> i) & 1;
            break;
          }
          case PacketKind::Tip:
          case PacketKind::TipPge:
          case PacketKind::TipPgd:
          case PacketKind::Fup: {
            FlowStep step;
            step.kind = pkt.kind == PacketKind::Tip ? StepKind::Tip
                : pkt.kind == PacketKind::TipPge ? StepKind::Pge
                : pkt.kind == PacketKind::TipPgd ? StepKind::Pgd
                : StepKind::Fup;
            step.ipSuppressed = pkt.ipSuppressed;
            step.ip = pkt.ip;
            step.tntOffset = static_cast<uint32_t>(pending);
            step.tntLength =
                static_cast<uint32_t>(result.tntBits.size() - pending);
            pending = result.tntBits.size();
            step.lossBefore = loss_pending;
            loss_pending = false;
            result.unsyncedSteps += !synced;
            result.steps.push_back(step);
            break;
          }
        }
    }
    if constexpr (Emit) {
        result.trailingOffset = static_cast<uint32_t>(pending);
        result.lossAtEnd = loss_pending;
    }
    return parser.offset() - start;
}

/** Decodes data[start, size) into the emptied `result`. */
void
decodeFrom(FastDecodeResult &result, std::span<const uint8_t> data,
           size_t start)
{
    result.clear();
    Counts unused;
    result.bytesScanned = parse<true>(data, start, SIZE_MAX, result,
                                      unused);
    result.startOffset = start;
}

void
decodeAll(FastDecodeResult &result, std::span<const uint8_t> data,
          cpu::CycleAccount *account, telemetry::Telemetry *telemetry,
          uint64_t cr3)
{
    const uint64_t begin = telemetry ? telemetry->now() : 0;
    decodeFrom(result, data, 0);
    charge(account, result.bytesScanned);
    report(telemetry, cr3, begin, result);
}

/**
 * The overflow resync emits OVF immediately followed by the PSB a
 * window anchors at. The gap the OVF marks lies inside the history
 * the window is supposed to cover ("everything since the last
 * check"), so it must stay visible to the loss policy even though
 * decoding starts at the PSB.
 */
void
countOverflowBeforeAnchor(FastDecodeResult &out,
                          std::span<const uint8_t> data, size_t anchor)
{
    if (anchor >= 2 && data[anchor - 2] == 0x02 &&
        data[anchor - 1] == 0xF3) {
        ++out.overflows;
        if (!out.steps.empty())
            out.steps.front().lossBefore = true;
    }
}

} // namespace

void
FastDecodeResult::clear()
{
    steps.clear();
    tntBits.clear();
    trailingOffset = 0;
    lossAtEnd = false;
    unsyncedSteps = 0;
    bytesScanned = 0;
    packetCount = 0;
    malformed = false;
    startOffset = 0;
    overflows = 0;
    resyncs = 0;
    bytesSkipped = 0;
}

FastDecodeResult
decodePacketLayer(std::span<const uint8_t> data,
                  cpu::CycleAccount *account,
                  telemetry::Telemetry *telemetry, uint64_t cr3)
{
    FastDecodeResult result;
    decodeAll(result, data, account, telemetry, cr3);
    return result;
}

FastDecodeResult
decodeRecentTips(std::span<const uint8_t> data, size_t min_tips,
                 cpu::CycleAccount *account,
                 telemetry::Telemetry *telemetry, uint64_t cr3)
{
    FastDecodeResult result;
    decodeRecentTipsInto(result, data, min_tips, account, telemetry,
                         cr3);
    return result;
}

void
decodeRecentTipsInto(FastDecodeResult &out,
                     std::span<const uint8_t> data, size_t min_tips,
                     cpu::CycleAccount *account,
                     telemetry::Telemetry *telemetry, uint64_t cr3)
{
    const uint64_t begin = telemetry ? telemetry->now() : 0;
    // PSB sync points let us begin decoding anywhere; walk backwards
    // segment by segment, only counting TIPs, until the suffix holds
    // enough of them, then emit the suffix in one chronological pass.
    // Each byte of the suffix is touched at most twice (count pass +
    // emit pass); nothing in front of it is read past the PSB search.
    out.clear();
    uint64_t scanned = 0;
    Counts counts;
    size_t anchor = SIZE_MAX;
    size_t limit = data.size();
    size_t seg_end = data.size();
    while (true) {
        const size_t sync = previousPsb(data.data(), data.size(), limit);
        if (sync == SIZE_MAX)
            break;
        scanned += parse<false>(data, sync, seg_end, out, counts);
        anchor = sync;
        seg_end = sync;
        if (counts.tips >= min_tips)
            break;
    }
    if (anchor == SIZE_MAX) {
        decodeAll(out, data, account, telemetry, cr3);
        return;
    }

    out.steps.reserve(counts.steps);
    out.tntBits.reserve(counts.bits);
    decodeFrom(out, data, anchor);
    scanned += out.bytesScanned;
    out.bytesScanned = scanned;
    countOverflowBeforeAnchor(out, data, anchor);
    charge(account, scanned);
    report(telemetry, cr3, begin, out);
}

void
extractTransitionViews(const FastDecodeResult &flow,
                       std::vector<TransitionView> &out)
{
    out.clear();
    if (flow.steps.empty())
        return;
    const std::span<const uint8_t> pool(flow.tntBits);
    uint64_t prev = 0;
    // Steps slice the pool back to back, so the outcomes of one
    // transition are the contiguous run from `from` to its TIP. (A
    // decode's first step starts the pool, unless a loss kept
    // outcomes ahead of it; those pair with nothing.)
    size_t from = flow.steps.front().tntOffset;
    for (const auto &step : flow.steps) {
        if (step.lossBefore) {
            // Trace gap: the previous TIP is not this step's true
            // predecessor. Restart the window as if at its head.
            prev = 0;
            from = step.tntOffset;
        }
        if (step.kind != StepKind::Tip || step.ipSuppressed)
            continue;   // context markers are transparent
        const size_t end = step.tntOffset + step.tntLength;
        out.push_back({prev, step.ip, pool.subspan(from, end - from)});
        from = end;
        prev = step.ip;
    }
}

std::vector<TipTransition>
extractTipTransitions(const FastDecodeResult &flow)
{
    std::vector<TransitionView> views;
    extractTransitionViews(flow, views);
    std::vector<TipTransition> out;
    out.reserve(views.size());
    for (const auto &view : views)
        out.push_back({view.from, view.to,
                       {view.tnt.begin(), view.tnt.end()}});
    return out;
}

} // namespace flowguard::decode

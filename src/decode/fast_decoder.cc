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
 * when there is none (none that reaches `floor` or above, when given);
 * `limit` then moves to the start of that run, so repeated calls walk
 * the sync points from the tail to the head.
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
previousPsb(const uint8_t *data, size_t size, size_t &limit,
            size_t floor = 0)
{
    using trace::detail::psb_byte0;
    using trace::detail::psb_byte1;
    // `probe` is one past the byte probed next.
    size_t probe = limit;
    while (probe > floor) {
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

using detail::AnchorSearch;
using detail::Counts;

/** Where an emit pass records the PSBs it crosses, and what makes
 *  those records unsafe to anchor a later window at; and the views
 *  that slice the outcome pool it appends to. */
struct PsbLog
{
    std::vector<detail::PsbRecord> &records;
    /** Stream offset of the parsed buffer's first byte. */
    uint64_t base = 0;
    /** Views into the pool, kept pointing at it when it grows. */
    std::vector<TransitionView> *views = nullptr;
    /** A PSB ran into the next one, so the later one is the sync
     *  point the anchored search finds, not both. */
    bool adjacent = false;

    /** Moves `pool` to a buffer that holds `need` outcomes, and the
     *  views with it. */
    void
    grow(std::vector<uint8_t> &pool, size_t need)
    {
        std::vector<uint8_t> grown;
        grown.reserve(std::max(need, 2 * pool.capacity()));
        grown.assign(pool.begin(), pool.end());
        if (views) {
            for (TransitionView &view : *views)
                view.tnt = {grown.data() + (view.tnt.data() - pool.data()),
                            view.tnt.size()};
        }
        pool.swap(grown);
    }

    void
    psb(uint64_t at, const FastDecodeResult &result)
    {
        const uint64_t offset = base + at;
        if (!records.empty() && records.back().offset + psb_len == offset)
            adjacent = true;
        detail::PsbRecord record;
        record.offset = offset;
        record.firstStep = result.steps.size();
        record.bitsAt = result.tntBits.size();
        record.overflowsAt = result.overflows;
        record.packetsAt = result.packetCount - 1;
        records.push_back(record);
    }

    /** Trace was lost with `steps` steps decoded: every PSB since the
     *  last step is followed by a loss before its first step. */
    void
    lost(size_t steps)
    {
        for (size_t i = records.size();
             i-- > 0 && records[i].firstStep == steps;)
            records[i].lossAfter = true;
    }

    /** A pass that stopped at `stop` on a cut 0x02 0x82 pair right
     *  after the last PSB: once the rest arrives, that run may end
     *  later than the PSB the records hold. */
    void
    checkTail(std::span<const uint8_t> data, size_t stop)
    {
        if (!records.empty() && records.back().offset + psb_len ==
                                    base + stop &&
            stop + 1 < data.size() && psbPairAt(data.data(), stop))
            adjacent = true;
    }
};

/**
 * Parses data[start, min(end, size)) from `state`, resynchronizing at
 * the next validated PSB after malformed bytes. With `Emit` the steps,
 * outcomes and loss counters are appended to `result`, the PSBs
 * crossed to `log` when given, and `state` is left where the pass
 * stopped (a later pass over a longer buffer goes on from there);
 * without, the pass builds nothing and only adds to `counts`. Both
 * modes follow the same packets, so they scan the same bytes. Returns
 * the bytes scanned.
 */
template <bool Emit>
uint64_t
parse(std::span<const uint8_t> data, size_t start, size_t end,
      FastDecodeResult &result, Counts &counts, detail::ParseState &state,
      PsbLog *log)
{
    const size_t limit = std::min(data.size(), end);
    PacketParser parser(data.data(), limit);
    parser.seek(start, state.lastIp);

    // Outcomes since the last step (and its last loss) start here in
    // the bit pool.
    size_t pending = state.pending;
    bool loss_pending = state.lossPending;
    // Steps before the first PSB carry IPs no PSB anchored.
    bool synced = state.synced;
    // A loss breaks adjacency: outcomes before the first one since the
    // last step stay in the pool, ahead of the next slice, and those
    // between two losses pair with nothing.
    auto lose = [&] {
        if (loss_pending)
            result.tntBits.resize(pending);
        pending = result.tntBits.size();
        loss_pending = true;
        if (log)
            log->lost(result.steps.size());
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
            if (log)
                log->psb(pkt.offset, result);
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
            if (log && at + pkt.tntCount > bits.capacity())
                log->grow(bits, at + pkt.tntCount);
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
        state.lastIp = parser.lastIp();
        state.pending = pending;
        state.lossPending = loss_pending;
        state.synced = synced;
        state.stop = static_cast<size_t>(parser.offset());
    }
    return parser.offset() - start;
}

/**
 * Goes on with the anchored search: walks the sync points down from
 * where it stopped, counting each segment's TIPs, until the suffix
 * holds `min_tips` of them or no sync point is left.
 *
 * With `resume_at`, the buffer was parsed up to there already, and the
 * walk looks only for a window that lies wholly past it: it stops at
 * the first sync point before it, and also before counting a segment
 * once parsing the bytes past `resume_at` reads no more than a fresh
 * decode anchored at or before that segment would (it reads its window
 * twice). The sync point it stops at stays for a later call.
 */
void
searchAnchor(std::span<const uint8_t> data, size_t min_tips,
             AnchorSearch &search, FastDecodeResult &result,
             size_t resume_at = SIZE_MAX)
{
    const size_t size = data.size();
    const size_t floor = resume_at == SIZE_MAX ? 0 : resume_at;
    // PSB sync points let us begin decoding anywhere; walk backwards
    // segment by segment, only counting TIPs, until the suffix holds
    // enough of them. Nothing in front of the anchor is read past the
    // PSB search.
    detail::ParseState unused;
    while (search.counts.tips < min_tips || search.anchor == SIZE_MAX) {
        size_t limit = search.limit;
        const size_t sync = previousPsb(data.data(), size, limit, floor);
        if (sync == SIZE_MAX || sync < floor)
            return;
        // (A packet the buffer cuts is read by neither.)
        if (resume_at != SIZE_MAX &&
            search.scanned + (size - resume_at) + psb_len <=
                2 * (size - sync))
            return;
        search.limit = limit;
        search.scanned += parse<false>(data, sync, search.segEnd, result,
                                       search.counts, unused, nullptr);
        search.anchor = sync;
        search.segEnd = sync;
    }
}

/**
 * The overflow resync emits OVF immediately followed by the PSB a
 * window anchors at. The gap the OVF marks lies inside the history
 * the window is supposed to cover ("everything since the last
 * check"), so it must stay visible to the loss policy even though
 * decoding starts at the PSB.
 */
bool
overflowBefore(std::span<const uint8_t> data, size_t anchor)
{
    return anchor >= 2 && data[anchor - 2] == trace::detail::psb_byte0 &&
           data[anchor - 1] == trace::detail::ovf_byte1;
}

void
countOverflowBeforeAnchor(FastDecodeResult &out,
                          std::span<const uint8_t> data, size_t anchor)
{
    if (overflowBefore(data, anchor)) {
        ++out.overflows;
        if (!out.steps.empty())
            out.steps.front().lossBefore = true;
    }
}

/**
 * The anchored decode into the emptied `out`: the anchored search
 * (going on from `search`), then one chronological emit pass from the
 * anchor, leaving `state` where that pass stopped and, with `log`, the
 * PSBs it crossed. `oldest`, when given, learns whether the search ran
 * out of sync points (the anchor is then the oldest in the buffer).
 *
 * Returns the anchor, or SIZE_MAX when the buffer holds no sync point.
 * Then a buffer at the head of its stream (`stream_offset` 0) is
 * decoded whole; one cut from further on yields no steps and a sync
 * loss, since bytes that no PSB anchors cannot be decoded without
 * fabricating IPs.
 */
size_t
decodeAnchored(FastDecodeResult &out, std::span<const uint8_t> data,
               size_t min_tips, uint64_t stream_offset,
               detail::ParseState &state, PsbLog *log,
               AnchorSearch search, bool *oldest = nullptr)
{
    out.clear();
    state = {};
    searchAnchor(data, min_tips, search, out);
    const size_t anchor = search.anchor;
    const Counts &counts = search.counts;
    if (oldest)
        *oldest = counts.tips < min_tips;
    uint64_t scanned = search.scanned;
    if (anchor == SIZE_MAX) {
        if (stream_offset > 0) {
            ++out.resyncs;
            out.bytesSkipped = data.size();
            return SIZE_MAX;
        }
        Counts unused;
        out.bytesScanned = parse<true>(data, 0, SIZE_MAX, out, unused,
                                       state, log);
        return SIZE_MAX;
    }
    // Each byte of the suffix is touched at most twice (count pass +
    // emit pass).
    out.steps.reserve(counts.steps);
    out.tntBits.reserve(counts.bits);
    Counts unused;
    scanned += parse<true>(data, anchor, SIZE_MAX, out, unused, state,
                           log);
    out.bytesScanned = scanned;
    out.startOffset = anchor;
    return anchor;
}

/**
 * Folds flow.steps from `begin` on into transitions, from where `fold`
 * stands, and hands each to `emit`; stops after the first one `emit`
 * returns false for.
 *
 * Steps slice the pool back to back, so the outcomes of one transition
 * are the contiguous run from `fold.from` to its TIP. (A window's
 * first step starts the pool, unless a loss kept outcomes ahead of it;
 * those pair with nothing.)
 */
template <typename Emit>
void
foldSteps(const FastDecodeResult &flow, size_t begin, detail::Fold &fold,
          Emit &&emit)
{
    const std::span<const uint8_t> pool(flow.tntBits);
    for (size_t i = begin; i < flow.steps.size(); ++i) {
        const FlowStep &step = flow.steps[i];
        if (step.lossBefore) {
            // Trace gap: the previous TIP is not this step's true
            // predecessor. Restart the window as if at its head.
            fold.prev = 0;
            fold.from = step.tntOffset;
        }
        if (step.kind != StepKind::Tip || step.ipSuppressed)
            continue;   // context markers are transparent
        const size_t end = step.tntOffset + step.tntLength;
        const TransitionView view{fold.prev, step.ip,
                                  pool.subspan(fold.from, end - fold.from)};
        fold.from = end;
        fold.prev = step.ip;
        if (!emit(view))
            return;
    }
}

/** A fold from the head of `flow`'s window. */
detail::Fold
headFold(const FastDecodeResult &flow)
{
    return {0, flow.steps.empty() ? 0 : flow.steps.front().tntOffset};
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
    const uint64_t begin = telemetry ? telemetry->now() : 0;
    FastDecodeResult result;
    detail::ParseState state;
    Counts unused;
    result.bytesScanned =
        parse<true>(data, 0, SIZE_MAX, result, unused, state, nullptr);
    charge(account, result.bytesScanned);
    report(telemetry, cr3, begin, result);
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
                     telemetry::Telemetry *telemetry, uint64_t cr3,
                     uint64_t stream_offset)
{
    const uint64_t begin = telemetry ? telemetry->now() : 0;
    detail::ParseState state;
    const size_t anchor = decodeAnchored(
        out, data, min_tips, stream_offset, state, nullptr,
        AnchorSearch(data.size()));
    if (anchor != SIZE_MAX)
        countOverflowBeforeAnchor(out, data, anchor);
    charge(account, out.bytesScanned);
    report(telemetry, cr3, begin, out);
}

const FastDecodeResult &
TraceCursor::decode(const trace::StreamView &view, size_t min_tips,
                    cpu::CycleAccount *account,
                    telemetry::Telemetry *telemetry, uint64_t cr3)
{
    const uint64_t begin = telemetry ? telemetry->now() : 0;
    uint64_t resumed = 0;
    AnchorSearch search(view.bytes.size());
    if (resume(view, min_tips, resumed, search)) {
        _flow.bytesScanned = search.scanned + resumed;
    } else {
        coldStart(view, min_tips, search);
        _flow.bytesScanned += resumed;
    }
    foldViews();
    charge(account, _flow.bytesScanned);
    report(telemetry, cr3, begin, _flow);
    return _flow;
}

void
TraceCursor::coldStart(const trace::StreamView &view, size_t min_tips,
                       const AnchorSearch &search)
{
    _psbs.clear();
    _origin = {_origin.coldStart + 1, 0, 0, 0};
    _views.clear();
    _folded = 0;
    // Bytes that stand alone are never resumed: keep no records.
    PsbLog log{_psbs, view.offset, &_views};
    const size_t anchor = decodeAnchored(
        _flow, view.bytes, min_tips, view.offset, _state,
        view.stream != 0 ? &log : nullptr, search, &_oldest);
    _stream = view.stream;
    _live = false;
    if (anchor == SIZE_MAX)
        return;
    if (view.stream != 0) {
        log.checkTail(view.bytes, _state.stop);
        // Only a clean parse is kept: the window of one that resynced
        // is what a fresh decode of each later view finds on its own.
        _live = !_flow.malformed && _flow.resyncs == 0 && !log.adjacent;
        _end = view.offset + _state.stop;
        _overflows = _flow.overflows;
        _packets = _flow.packetCount;
    }
    countOverflowBeforeAnchor(_flow, view.bytes, anchor);
}

bool
TraceCursor::resume(const trace::StreamView &view, size_t min_tips,
                    uint64_t &parsed, AnchorSearch &search)
{
    // Go on only over the stream decoded so far, while the view still
    // holds the resume point. A whole-buffer window anchors at the
    // oldest sync point in the view, which the records hold when the
    // search that picked the first one ran out of older ones, or once
    // a wrap has overwritten the first one.
    const uint64_t view_end = view.offset + view.bytes.size();
    if (!_live || view.stream != _stream || _end < view.offset ||
        _end > view_end ||
        (min_tips == SIZE_MAX && !_oldest &&
         _psbs.front().offset >= view.offset))
        return false;
    // The anchored search begins with the PSBs among the new bytes. If
    // those alone hold the window, a cold start goes on with the search
    // and reads no more than a fresh decode. Otherwise the window
    // reaches back into what the records hold, or far enough that
    // parsing the new bytes costs no more than the fresh decode.
    const size_t start = static_cast<size_t>(_end - view.offset);
    searchAnchor(view.bytes, min_tips, search, _flow, start);
    if (search.anchor != SIZE_MAX && search.counts.tips >= min_tips)
        return false;

    // The window's counters stand in for the running ones.
    _flow.overflows = _overflows;
    _flow.packetCount = _packets;
    PsbLog log{_psbs, view.offset, &_views};
    Counts unused;
    parsed = parse<true>(view.bytes, start, SIZE_MAX, _flow, unused,
                         _state, &log);
    log.checkTail(view.bytes, _state.stop);
    _end = view.offset + _state.stop;
    _overflows = _flow.overflows;
    _packets = _flow.packetCount;
    if (_flow.malformed || log.adjacent) {
        _live = false;
        return false;
    }
    return selectWindow(view, min_tips);
}

bool
TraceCursor::selectWindow(const trace::StreamView &view, size_t min_tips)
{
    // The anchored search's choice, made over the PSB records: walking
    // back from the latest PSB still in the view, the first whose
    // suffix holds min_tips TIPs, else the oldest.
    const std::vector<FlowStep> &steps = _flow.steps;
    size_t tips = 0;
    size_t step = steps.size();
    size_t chosen = SIZE_MAX;
    bool enough = false;
    for (size_t i = _psbs.size();
         i-- > 0 && _psbs[i].offset >= view.offset;) {
        for (; step > _psbs[i].firstStep; --step)
            tips += steps[step - 1].kind == StepKind::Tip ? 1 : 0;
        chosen = i;
        if (tips >= min_tips) {
            enough = true;
            break;
        }
    }
    // Short of TIPs, the search goes on to older sync points: the
    // oldest record must be the oldest in the view.
    if (chosen == SIZE_MAX || (!enough && chosen == 0 && !_oldest))
        return false;
    if (chosen > 0) {
        dropBefore(chosen);
        _oldest = !enough;
    }

    // A fresh decode starts at the anchor with nothing pending: its
    // first step carries only the outcomes since the anchor (or since
    // the last loss after it), and a loss only if one came after the
    // anchor or an OVF right before it.
    const detail::PsbRecord &anchor = _psbs.front();
    const size_t at = static_cast<size_t>(anchor.offset - view.offset);
    const bool ovf = overflowBefore(view.bytes, at);
    _flow.startOffset = at;
    _flow.overflows = _overflows + (ovf ? 1 : 0);
    _flow.packetCount = _packets;
    if (!_flow.steps.empty()) {
        FlowStep &first = _flow.steps.front();
        const uint32_t end = first.tntOffset + first.tntLength;
        if (!anchor.lossAfter)
            first.tntOffset = std::max<uint32_t>(
                first.tntOffset, static_cast<uint32_t>(anchor.bitsAt));
        first.tntLength = end - first.tntOffset;
        first.lossBefore = anchor.lossAfter || ovf;
        _flow.trailingOffset = static_cast<uint32_t>(_state.pending);
        _flow.lossAtEnd = _state.lossPending;
    } else {
        _flow.trailingOffset = static_cast<uint32_t>(
            anchor.lossAfter ? _state.pending
                             : std::max(_state.pending, anchor.bitsAt));
        _flow.lossAtEnd = anchor.lossAfter;
    }
    return true;
}

void
TraceCursor::dropBefore(size_t index)
{
    // Everything a window anchored here or later reads stays: the
    // steps from the anchor's first, and the outcomes from where that
    // step's slice (or, with no step yet, the trailing run) may start.
    const detail::PsbRecord anchor = _psbs[index];
    std::vector<FlowStep> &steps = _flow.steps;
    const size_t first = anchor.firstStep;
    const size_t bit = std::min(
        anchor.bitsAt,
        first < steps.size() ? size_t{steps[first].tntOffset}
                             : _state.pending);
    // The views of the dropped steps go with them; the next fold
    // rebuilds the one that then leads as the head, or, with none
    // left, folds what is left from the head.
    const size_t folded = std::min(first, _folded);
    size_t views = 0;
    for (size_t i = 0; i < folded; ++i)
        views += steps[i].kind == StepKind::Tip && !steps[i].ipSuppressed;
    _views.erase(_views.begin(),
                 _views.begin() + static_cast<ptrdiff_t>(views));
    _folded = _views.empty() ? 0 : _folded - folded;
    _fold.from -= _folded > 0 ? bit : 0;
    _origin.views += views;
    _trimmed = true;
    steps.erase(steps.begin(),
                steps.begin() + static_cast<ptrdiff_t>(first));
    _flow.tntBits.erase(_flow.tntBits.begin(),
                        _flow.tntBits.begin() +
                            static_cast<ptrdiff_t>(bit));
    // The outcomes moved down in place. The head's may have started in
    // front of the kept ones; the next fold rebuilds it.
    const uint8_t *pool = _flow.tntBits.data();
    for (size_t i = 1; i < _views.size(); ++i) {
        const std::span<const uint8_t> tnt = _views[i].tnt;
        const size_t at = static_cast<size_t>(tnt.data() - pool) - bit;
        _views[i].tnt = {pool + at, tnt.size()};
    }
    if (!_views.empty())
        _views.front().tnt = {};
    for (FlowStep &step : steps)
        step.tntOffset -= static_cast<uint32_t>(bit);
    _state.pending -= bit;
    _psbs.erase(_psbs.begin(),
                _psbs.begin() + static_cast<ptrdiff_t>(index));
    for (detail::PsbRecord &psb : _psbs) {
        psb.firstStep -= first;
        psb.bitsAt = psb.bitsAt > bit ? psb.bitsAt - bit : 0;
        psb.overflowsAt -= anchor.overflowsAt;
        psb.packetsAt -= anchor.packetsAt;
    }
    _overflows -= anchor.overflowsAt;
    _packets -= anchor.packetsAt;
    _origin.steps += first;
    _origin.bits += bit;
}

void
TraceCursor::foldViews()
{
    if (_folded == 0) {
        _fold = headFold(_flow);
    } else if (_trimmed) {
        // The view that now leads lost its source TIP, and the first
        // step was re-sliced.
        detail::Fold head = headFold(_flow);
        foldSteps(_flow, 0, head, [&](const TransitionView &view) {
            _views.front() = view;
            return false;
        });
    }
    foldSteps(_flow, _folded, _fold, [&](const TransitionView &view) {
        _views.push_back(view);
        return true;
    });
    _folded = _flow.steps.size();
    _trimmed = false;
}

void
extractTransitionViews(const FastDecodeResult &flow,
                       std::vector<TransitionView> &out)
{
    out.clear();
    detail::Fold fold = headFold(flow);
    foldSteps(flow, 0, fold, [&](const TransitionView &view) {
        out.push_back(view);
        return true;
    });
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

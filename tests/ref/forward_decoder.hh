/**
 * @file
 * The forward-scan packet decoder, kept test-only as a reference.
 *
 * It is the decoder the fast path used before the backward PSB search
 * and the TraceCursor: `decodeFrom` parses forward from one offset in
 * one pass, with no search and no kept state, and `decodeRecentTips`
 * finds every PSB with trace::findPsbOffsets, counts TIPs segment by
 * segment from the last one backwards by decoding them whole, then
 * decodes the suffix from the chosen sync point. The decoder under
 * test must pick the same anchor and produce the same steps, outcomes,
 * loss counters and bytesScanned (so the same modeled decode charge);
 * a forward decode from byte 0 is the ground truth of a trace that
 * never wrapped.
 */

#ifndef FLOWGUARD_TESTS_REF_FORWARD_DECODER_HH
#define FLOWGUARD_TESTS_REF_FORWARD_DECODER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "decode/fast_decoder.hh"
#include "trace/ipt_packets.hh"

namespace flowguard::test::ref {

using decode::StepKind;
using decode::TipTransition;
using trace::Packet;
using trace::PacketKind;
using trace::PacketParser;

struct Step
{
    StepKind kind = StepKind::Tip;
    bool ipSuppressed = false;
    uint64_t ip = 0;
    std::vector<uint8_t> tntBefore;
    bool lossBefore = false;
};

struct Result
{
    std::vector<Step> steps;
    std::vector<uint8_t> trailingTnt;
    uint64_t bytesScanned = 0;
    uint64_t packetCount = 0;
    bool malformed = false;
    /** Steps decoded before the first PSB. */
    uint64_t unsyncedSteps = 0;
    uint64_t startOffset = 0;
    uint64_t overflows = 0;
    uint64_t resyncs = 0;
    uint64_t bytesSkipped = 0;
};

inline Result
decodeFrom(const uint8_t *data, size_t size, size_t start,
           size_t end = SIZE_MAX)
{
    Result result;
    const size_t limit = std::min(size, end);
    PacketParser parser(data, limit);
    parser.seek(start);

    std::vector<uint8_t> pending_tnt;
    bool loss_pending = false;
    bool synced = false;
    Packet pkt;
    while (true) {
        if (!parser.next(pkt)) {
            if (!parser.bad())
                break;
            result.malformed = true;
            const size_t bad_at = static_cast<size_t>(parser.offset());
            const size_t psb =
                trace::findNextPsb(data, limit, bad_at + 1);
            if (psb == SIZE_MAX) {
                result.bytesSkipped += limit - bad_at;
                parser.seek(limit);
                break;
            }
            result.bytesSkipped += psb - bad_at;
            ++result.resyncs;
            parser.seek(psb);
            pending_tnt.clear();
            loss_pending = true;
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
            ++result.overflows;
            pending_tnt.clear();
            loss_pending = true;
            break;
          case PacketKind::Tnt:
            for (int i = 0; i < pkt.tntCount; ++i)
                pending_tnt.push_back((pkt.tntBits >> i) & 1);
            break;
          case PacketKind::Tip:
          case PacketKind::TipPge:
          case PacketKind::TipPgd:
          case PacketKind::Fup: {
            Step step;
            step.kind = pkt.kind == PacketKind::Tip ? StepKind::Tip
                : pkt.kind == PacketKind::TipPge ? StepKind::Pge
                : pkt.kind == PacketKind::TipPgd ? StepKind::Pgd
                : StepKind::Fup;
            step.ipSuppressed = pkt.ipSuppressed;
            step.ip = pkt.ip;
            step.tntBefore = std::move(pending_tnt);
            pending_tnt.clear();
            step.lossBefore = loss_pending;
            loss_pending = false;
            result.unsyncedSteps += !synced;
            result.steps.push_back(std::move(step));
            break;
          }
        }
    }
    result.trailingTnt = std::move(pending_tnt);
    result.bytesScanned = parser.offset() - start;
    result.startOffset = start;
    return result;
}

inline Result
decodeRecentTips(const std::vector<uint8_t> &bytes, size_t min_tips)
{
    const uint8_t *data = bytes.data();
    const size_t size = bytes.size();
    std::vector<uint64_t> syncs = trace::findPsbOffsets(data, size);
    // A bare buffer is taken to start its stream.
    if (syncs.empty())
        return decodeFrom(data, size, 0);

    uint64_t scanned = 0;
    size_t cutoff = syncs.size() - 1;
    size_t tips = 0;
    for (size_t i = syncs.size(); i-- > 0;) {
        const size_t seg_end = i + 1 < syncs.size()
            ? static_cast<size_t>(syncs[i + 1]) : size;
        Result segment = decodeFrom(
            data, size, static_cast<size_t>(syncs[i]), seg_end);
        scanned += segment.bytesScanned;
        for (const auto &step : segment.steps)
            tips += step.kind == StepKind::Tip ? 1 : 0;
        cutoff = i;
        if (tips >= min_tips)
            break;
    }

    Result result =
        decodeFrom(data, size, static_cast<size_t>(syncs[cutoff]));
    scanned += result.bytesScanned;
    result.bytesScanned = scanned;

    const size_t anchor = static_cast<size_t>(syncs[cutoff]);
    if (anchor >= 2 && data[anchor - 2] == 0x02 &&
        data[anchor - 1] == 0xF3) {
        ++result.overflows;
        if (!result.steps.empty())
            result.steps.front().lossBefore = true;
    }
    return result;
}

/** The transition fold the fast path runs over a reference result. */
inline std::vector<TipTransition>
transitions(const Result &flow)
{
    std::vector<TipTransition> out;
    uint64_t prev = 0;
    std::vector<uint8_t> tnt;
    for (const auto &step : flow.steps) {
        if (step.lossBefore) {
            prev = 0;
            tnt.clear();
        }
        tnt.insert(tnt.end(), step.tntBefore.begin(),
                   step.tntBefore.end());
        if (step.kind != StepKind::Tip || step.ipSuppressed)
            continue;
        out.push_back({prev, step.ip, std::move(tnt)});
        tnt.clear();
        prev = step.ip;
    }
    return out;
}

} // namespace flowguard::test::ref

#endif // FLOWGUARD_TESTS_REF_FORWARD_DECODER_HH

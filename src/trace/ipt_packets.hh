/**
 * @file
 * IPT packet definitions: the wire format shared by the encoder (trace
 * hardware model) and the decoders.
 *
 * The format is a faithful subset of real Intel PT packets — the
 * properties FlowGuard's design responds to (aggressive compression,
 * typeless packets, last-IP delta encoding, PSB sync points) are all
 * preserved at the byte level:
 *
 *   PAD      0x00
 *   TNT      one even byte >= 0x04: bit 0 = 0, the highest set bit is
 *            the stop bit, bits below it down to bit 1 are 1-6 branch
 *            outcomes (bit 1 = oldest)
 *   TIP      header byte, low 5 bits 0x0D, top 3 bits = IPBytes mode,
 *            followed by 0/2/4/8 bytes of little-endian IP payload
 *            (delta-compressed against the decoder's last-IP state)
 *   TIP.PGE  header low 5 bits 0x11, same IP payload scheme
 *   TIP.PGD  header low 5 bits 0x01, same IP payload scheme
 *   FUP      header low 5 bits 0x1D, same IP payload scheme
 *   PSB      0x02 0x82 repeated 8 times (16 bytes); resets last-IP
 *   PSBEND   0x02 0x23
 *   OVF      0x02 0xF3: the hardware dropped packets because trace
 *            output stalled (ToPA full, PMI not yet serviced); the
 *            encoder follows it with a PSB so decoding can resync
 *
 * IPBytes modes: 0 = IP suppressed, 1 = low 16 bits updated, 2 = low
 * 32 bits updated, 6 = full 64-bit IP.
 */

#ifndef FLOWGUARD_TRACE_IPT_PACKETS_HH
#define FLOWGUARD_TRACE_IPT_PACKETS_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/logging.hh"

namespace flowguard::trace {

enum class PacketKind : uint8_t {
    Pad,
    Tnt,
    Tip,
    TipPge,
    TipPgd,
    Fup,
    Psb,
    PsbEnd,
    Ovf,
};

/** Header low-5-bit opcodes for the TIP packet family. */
namespace opcode {

constexpr uint8_t tip = 0x0D;
constexpr uint8_t tip_pge = 0x11;
constexpr uint8_t tip_pgd = 0x01;
constexpr uint8_t fup = 0x1D;

} // namespace opcode

/** A parsed packet. */
struct Packet
{
    PacketKind kind = PacketKind::Pad;

    // TNT payload: `tntCount` branch outcomes, bit 0 of tntBits oldest.
    uint8_t tntCount = 0;
    uint8_t tntBits = 0;

    // TIP/PGE/PGD/FUP payload.
    bool ipSuppressed = false;
    uint64_t ip = 0;

    /** Encoded size in bytes (for cost accounting / offsets). */
    uint32_t size = 0;
    /** Byte offset of this packet in the parsed stream. */
    uint64_t offset = 0;

    std::string toString() const;
};

/** Wire-format constants and helpers the inline parser below needs. */
namespace detail {

constexpr uint8_t psb_byte0 = 0x02;
constexpr uint8_t psb_byte1 = 0x82;
constexpr uint8_t psbend_byte1 = 0x23;
constexpr uint8_t ovf_byte1 = 0xF3;
constexpr int psb_repeats = 8;
constexpr size_t psb_len = 2 * psb_repeats;
constexpr size_t psbend_len = 2;
constexpr size_t ovf_len = 2;
/** Header byte plus the widest IP payload (IPBytes mode 6). */
constexpr size_t tip_max_len = 1 + 8;

inline bool
psbPatternAt(const uint8_t *data, size_t size, size_t pos)
{
    if (pos + psb_len > size)
        return false;
    for (int k = 0; k < psb_repeats; ++k) {
        if (data[pos + 2 * static_cast<size_t>(k)] != psb_byte0 ||
            data[pos + 2 * static_cast<size_t>(k) + 1] != psb_byte1)
            return false;
    }
    return true;
}

/** True when the bytes from `pos` to the end of the buffer are a
 *  proper prefix of the PSB pattern (the run was cut mid-buffer). */
inline bool
psbPrefixAtEnd(const uint8_t *data, size_t size, size_t pos)
{
    for (size_t k = pos; k < size; ++k) {
        const uint8_t expected =
            ((k - pos) % 2 == 0) ? psb_byte0 : psb_byte1;
        if (data[k] != expected)
            return false;
    }
    return true;
}

inline int
ipPayloadBytes(int mode)
{
    switch (mode) {
      case 0: return 0;
      case 1: return 2;
      case 2: return 4;
      case 6: return 8;
    }
    return -1;
}

/** IPBytes mode for compressing `ip` against `last_ip`. */
inline int
ipMode(uint64_t ip, uint64_t last_ip)
{
    if ((ip >> 16) == (last_ip >> 16))
        return 1;
    if ((ip >> 32) == (last_ip >> 32))
        return 2;
    return 6;
}

} // namespace detail

// The packet writers append to any byte sink with push_back: a
// std::vector, or the encoder's fixed-size PacketBytes below.

/** Appends a short TNT packet holding `count` (1-6) outcomes. */
template <typename Out>
void
appendTnt(Out &out, uint8_t bits, int count)
{
    fg_assert(count >= 1 && count <= 6, "short TNT holds 1-6 bits");
    uint8_t byte = static_cast<uint8_t>(1u << (count + 1));
    byte |= static_cast<uint8_t>((bits & ((1u << count) - 1)) << 1);
    out.push_back(byte);
}

/**
 * Appends a TIP-class packet, delta-compressing `ip` against
 * `last_ip` (updated). `suppress` emits IPBytes mode 0.
 */
template <typename Out>
void
appendTipClass(Out &out, uint8_t op, uint64_t ip, uint64_t &last_ip,
               bool suppress = false)
{
    const int mode = suppress ? 0 : detail::ipMode(ip, last_ip);
    out.push_back(static_cast<uint8_t>((mode << 5) | op));
    const int nbytes = detail::ipPayloadBytes(mode);
    for (int i = 0; i < nbytes; ++i)
        out.push_back(static_cast<uint8_t>(ip >> (8 * i)));
    if (!suppress)
        last_ip = ip;
}

/** Appends the 16-byte PSB sync pattern. */
template <typename Out>
void
appendPsb(Out &out)
{
    for (int i = 0; i < detail::psb_repeats; ++i) {
        out.push_back(detail::psb_byte0);
        out.push_back(detail::psb_byte1);
    }
}

/** Appends PSBEND. */
template <typename Out>
void
appendPsbEnd(Out &out)
{
    out.push_back(detail::psb_byte0);
    out.push_back(detail::psbend_byte1);
}

/** Appends OVF (0x02 0xF3), the trace-loss marker. */
template <typename Out>
void
appendOvf(Out &out)
{
    out.push_back(detail::psb_byte0);
    out.push_back(detail::ovf_byte1);
}

/** Appends a PAD byte. */
template <typename Out>
void
appendPad(Out &out)
{
    out.push_back(0x00);
}

/**
 * The bytes of one encoder write, assembled on the stack so a packet
 * reaches the ToPA in a single write with no heap buffer. The largest
 * write is OVF + PSB + PSBEND; the next is FUP + TIP.PGD.
 */
class PacketBytes
{
  public:
    static constexpr size_t capacity =
        detail::ovf_len + detail::psb_len + detail::psbend_len;
    static_assert(capacity >= 2 * detail::tip_max_len,
                  "a FUP + TIP.PGD group must fit");

    void push_back(uint8_t byte)
    {
        assert(_size < capacity);
        _bytes[_size++] = byte;
    }
    const uint8_t *data() const { return _bytes; }
    size_t size() const { return _size; }

  private:
    uint8_t _bytes[capacity];
    size_t _size = 0;
};

/**
 * Streaming parser over a raw packet buffer. Maintains the last-IP
 * decompression state; PSB resets it, exactly mirroring the encoder.
 * This is the packet layer of abstraction — it never consults any
 * binary.
 */
class PacketParser
{
  public:
    PacketParser(const uint8_t *data, size_t size);
    explicit PacketParser(const std::vector<uint8_t> &data);

    /**
     * Parses the next packet into `out`.
     * @retval true a packet was produced.
     * @retval false end of buffer or undecodable garbage (sets bad()).
     */
    bool next(Packet &out);

    /** True if parsing stopped on malformed bytes. A valid packet
     *  header whose payload runs past the end of the buffer is NOT
     *  bad — it sets truncated() instead: a snapshot racing the
     *  write cursor naturally tears the final packet, and treating
     *  that as loss would convict benign processes under fail-closed
     *  policies. */
    bool bad() const { return _bad; }

    /** True if the buffer ended in the middle of a packet. */
    bool truncated() const { return _truncated; }

    /** Current byte offset. */
    uint64_t offset() const { return _pos; }

    /**
     * Repositions to `offset`, which must be a PSB boundary for the
     * last-IP state to be correct (used for parallel decode from sync
     * points and for resynchronization after malformed bytes). Clears
     * the bad() flag.
     */
    void seek(uint64_t offset);

  private:
    const uint8_t *_data;
    size_t _size;
    size_t _pos = 0;
    uint64_t _lastIp = 0;
    bool _bad = false;
    bool _truncated = false;
};

// Defined here so the decoders' per-packet loops inline it.
inline bool
PacketParser::next(Packet &out)
{
    using namespace detail;
    if (_bad || _truncated || _pos >= _size)
        return false;

    out = Packet{};
    out.offset = _pos;
    const uint8_t head = _data[_pos];

    if (head == 0x00) {
        out.kind = PacketKind::Pad;
        out.size = 1;
        _pos += 1;
        return true;
    }

    if (head == psb_byte0) {
        if (_pos + 1 >= _size) {
            _truncated = true;  // lone 0x02 at the very end
            return false;
        }
        const uint8_t second = _data[_pos + 1];
        if (second == psb_byte1) {
            // Expect the full 16-byte pattern.
            if (!psbPatternAt(_data, _size, _pos)) {
                if (_pos + psb_len > _size &&
                    psbPrefixAtEnd(_data, _size, _pos))
                    _truncated = true;
                else
                    _bad = true;
                return false;
            }
            out.kind = PacketKind::Psb;
            out.size = psb_len;
            _pos += out.size;
            _lastIp = 0;    // sync point: compression state resets
            return true;
        }
        if (second == psbend_byte1) {
            out.kind = PacketKind::PsbEnd;
            out.size = 2;
            _pos += 2;
            return true;
        }
        if (second == ovf_byte1) {
            // Packets were dropped; the last-IP state on the far side
            // of the gap is unknowable until the next PSB resets it.
            out.kind = PacketKind::Ovf;
            out.size = 2;
            _pos += 2;
            return true;
        }
        _bad = true;
        return false;
    }

    if ((head & 1) == 0) {
        // Short TNT: the stop bit is the highest set bit (head != 0).
        const int stop = std::bit_width(head) - 1;
        if (stop < 2) {
            _bad = true;    // no payload bits — not a valid TNT
            return false;
        }
        out.kind = PacketKind::Tnt;
        out.tntCount = static_cast<uint8_t>(stop - 1);
        out.tntBits = static_cast<uint8_t>(
            (head >> 1) & ((1u << out.tntCount) - 1));
        out.size = 1;
        _pos += 1;
        return true;
    }

    // TIP-class packet.
    const uint8_t op = head & 0x1F;
    const int mode = head >> 5;
    PacketKind kind;
    switch (op) {
      case opcode::tip: kind = PacketKind::Tip; break;
      case opcode::tip_pge: kind = PacketKind::TipPge; break;
      case opcode::tip_pgd: kind = PacketKind::TipPgd; break;
      case opcode::fup: kind = PacketKind::Fup; break;
      default:
        _bad = true;
        return false;
    }
    const int nbytes = ipPayloadBytes(mode);
    if (nbytes < 0) {
        _bad = true;
        return false;
    }
    if (_pos + 1 + static_cast<size_t>(nbytes) > _size) {
        _truncated = true;  // valid header, payload cut off
        return false;
    }
    uint64_t payload = 0;
    for (int i = nbytes - 1; i >= 0; --i)
        payload = (payload << 8) | _data[_pos + 1 + i];

    out.kind = kind;
    out.size = static_cast<uint32_t>(1 + nbytes);
    if (mode == 0) {
        out.ipSuppressed = true;
    } else if (mode == 1) {
        out.ip = (_lastIp & ~0xFFFFULL) | payload;
        _lastIp = out.ip;
    } else if (mode == 2) {
        out.ip = (_lastIp & ~0xFFFFFFFFULL) | payload;
        _lastIp = out.ip;
    } else {
        out.ip = payload;
        _lastIp = out.ip;
    }
    _pos += out.size;
    return true;
}

/**
 * Scans the buffer for PSB boundaries (for parallel fast decode and
 * post-loss resynchronization).
 *
 * A raw 16-byte match is not sufficient: a TIP payload whose bytes
 * happen to contain 0x02 0x82 pairs directly in front of a genuine
 * PSB extends the repeating pattern backwards, and the shifted match
 * would start mid-packet. Candidates are therefore extended to the
 * end of their 0x02 0x82 run and only the final 16 bytes — the
 * position the encoder actually emitted — are accepted.
 */
std::vector<uint64_t> findPsbOffsets(const uint8_t *data, size_t size);

/**
 * First validated PSB boundary at or after `from` (same acceptance
 * rule as findPsbOffsets), or SIZE_MAX when the buffer holds none.
 */
size_t findNextPsb(const uint8_t *data, size_t size, size_t from);

} // namespace flowguard::trace

#endif // FLOWGUARD_TRACE_IPT_PACKETS_HH

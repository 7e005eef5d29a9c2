#include "trace/ipt_packets.hh"

#include <sstream>

namespace flowguard::trace {

using namespace detail;

namespace {

/**
 * Accepts a candidate raw match only at the tail of its 0x02 0x82
 * run: TIP payload bytes in front of a genuine PSB can extend the
 * repeating pattern backwards, and any earlier start would sit
 * mid-packet. Returns the validated sync offset.
 */
size_t
psbRunTail(const uint8_t *data, size_t size, size_t match)
{
    size_t end = match + psb_len;
    while (end + 2 <= size && data[end] == psb_byte0 &&
           data[end + 1] == psb_byte1)
        end += 2;
    return end - psb_len;
}

} // namespace

std::string
Packet::toString() const
{
    std::ostringstream oss;
    switch (kind) {
      case PacketKind::Pad:
        oss << "PAD";
        break;
      case PacketKind::Tnt: {
        oss << "TNT(";
        for (int i = 0; i < tntCount; ++i)
            oss << ((tntBits >> i) & 1);
        oss << ")";
        break;
      }
      case PacketKind::Tip:
      case PacketKind::TipPge:
      case PacketKind::TipPgd:
      case PacketKind::Fup: {
        const char *name = kind == PacketKind::Tip ? "TIP"
            : kind == PacketKind::TipPge ? "TIP.PGE"
            : kind == PacketKind::TipPgd ? "TIP.PGD"
            : "FUP";
        oss << name;
        if (ipSuppressed)
            oss << "(<suppressed>)";
        else
            oss << std::hex << "(0x" << ip << ")";
        break;
      }
      case PacketKind::Psb:
        oss << "PSB";
        break;
      case PacketKind::PsbEnd:
        oss << "PSBEND";
        break;
      case PacketKind::Ovf:
        oss << "OVF";
        break;
    }
    return oss.str();
}

PacketParser::PacketParser(const uint8_t *data, size_t size)
    : _data(data), _size(size)
{}

PacketParser::PacketParser(const std::vector<uint8_t> &data)
    : _data(data.data()), _size(data.size())
{}

void
PacketParser::seek(uint64_t offset)
{
    _pos = offset;
    _lastIp = 0;
    _bad = false;
    _truncated = false;
}

std::vector<uint64_t>
findPsbOffsets(const uint8_t *data, size_t size)
{
    std::vector<uint64_t> offsets;
    if (size < psb_len)
        return offsets;
    for (size_t i = 0; i + psb_len <= size; ++i) {
        if (!psbPatternAt(data, size, i))
            continue;
        const size_t start = psbRunTail(data, size, i);
        offsets.push_back(start);
        i = start + psb_len - 1;
    }
    return offsets;
}

size_t
findNextPsb(const uint8_t *data, size_t size, size_t from)
{
    for (size_t i = from; i + psb_len <= size; ++i) {
        if (psbPatternAt(data, size, i))
            return psbRunTail(data, size, i);
    }
    return SIZE_MAX;
}

} // namespace flowguard::trace

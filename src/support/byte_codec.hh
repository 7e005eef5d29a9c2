/**
 * @file
 * The byte codec of the journal and snapshots: little-endian fields
 * and CRC frames written in place into a byte vector, read back by a
 * bounded reader that records truncation instead of aborting. Shifts,
 * not casts, make the bytes independent of host endianness.
 */

#ifndef FLOWGUARD_SUPPORT_BYTE_CODEC_HH
#define FLOWGUARD_SUPPORT_BYTE_CODEC_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/crc32.hh"

namespace flowguard {

/**
 * Appends fields through a write cursor. The vector grows ahead of the
 * cursor a page at a time (its capacity still doubles) and is cut back
 * to the cursor when the writer goes out of scope.
 */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<uint8_t> &out)
        : _out(out), _at(out.size())
    {}
    ~ByteWriter() { _out.resize(_at); }
    ByteWriter(const ByteWriter &) = delete;
    ByteWriter &operator=(const ByteWriter &) = delete;

    void u8(uint8_t value) { *room(1) = value; }
    void u64(uint64_t value) { put<8>(room(8), value); }
    void
    bytes(const void *data, size_t size)
    {
        if (size != 0)
            std::memcpy(room(size), data, size);
    }

    /** Opens a [u32 length][u32 CRC-32] frame at the returned offset. */
    size_t
    beginFrame()
    {
        u64(0);
        return _at - 8;
    }

    /** Patches in the length and CRC of what followed `header`. */
    void
    endFrame(size_t header)
    {
        uint8_t *frame = _out.data() + header;
        const size_t len = _at - header - 8;
        put<4>(frame, len);
        put<4>(frame + 4, crc32(frame + 8, len));
    }

  private:
    template <int Width>
    static void
    put(uint8_t *out, uint64_t value)
    {
        for (int i = 0; i < Width; ++i)
            out[i] = static_cast<uint8_t>(value >> (8 * i));
    }

    uint8_t *
    room(size_t size)
    {
        if (_out.size() - _at < size)
            _out.resize(_at + std::max<size_t>(size, 4096));
        _at += size;
        return _out.data() + _at - size;
    }

    std::vector<uint8_t> &_out;
    size_t _at;
};

/** Bounded reader: a read past the end returns zero (or null) and
 *  sets the sticky `truncated` flag, so a decoder checks it once. */
struct ByteReader
{
    const uint8_t *data;
    size_t size;
    size_t offset = 0;
    bool truncated = false;

    uint8_t u8() { return static_cast<uint8_t>(get<1>()); }
    uint32_t u32() { return static_cast<uint32_t>(get<4>()); }
    uint64_t u64() { return get<8>(); }

    /** `count` bytes read in place; null when fewer remain. */
    const uint8_t *
    bytes(uint64_t count)
    {
        if (truncated || count > size - offset) {
            truncated = true;
            return nullptr;
        }
        offset += count;
        return data + offset - count;
    }

  private:
    template <int Width>
    uint64_t
    get()
    {
        const uint8_t *in = bytes(Width);
        uint64_t value = 0;
        for (int i = 0; in && i < Width; ++i)
            value |= static_cast<uint64_t>(in[i]) << (8 * i);
        return value;
    }
};

} // namespace flowguard

#endif // FLOWGUARD_SUPPORT_BYTE_CODEC_HH

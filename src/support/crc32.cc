#include "support/crc32.hh"

#include <array>

namespace flowguard {

namespace {

/** Slice-by-8: table[0] is the bytewise table, table[k][i] the CRC of
 *  byte i followed by k zero bytes. */
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables
makeTables()
{
    Tables table{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (uint32_t i = 0; i < 256; ++i)
            table[k][i] = (table[k - 1][i] >> 8) ^
                          table[0][table[k - 1][i] & 0xFF];
    return table;
}

} // namespace

uint32_t
crc32(const void *data, size_t size, uint32_t seed)
{
    static const Tables table = makeTables();
    const auto *bytes = static_cast<const uint8_t *>(data);
    uint32_t c = seed ^ 0xFFFFFFFFu;
    // Eight bytes a step: the running CRC folds into the first four,
    // and each byte is looked up by its distance from the step's end.
    for (; size >= 8; bytes += 8, size -= 8) {
        c ^= bytes[0] | bytes[1] << 8 | bytes[2] << 16 |
             static_cast<uint32_t>(bytes[3]) << 24;
        c = table[7][c & 0xFF] ^ table[6][(c >> 8) & 0xFF] ^
            table[5][(c >> 16) & 0xFF] ^ table[4][c >> 24] ^
            table[3][bytes[4]] ^ table[2][bytes[5]] ^
            table[1][bytes[6]] ^ table[0][bytes[7]];
    }
    for (; size != 0; ++bytes, --size)
        c = table[0][(c ^ *bytes) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace flowguard

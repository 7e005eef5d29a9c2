/**
 * @file
 * CRC-32 (IEEE 802.3, reflected 0xEDB88320) — the frame checksum for
 * crash-safe on-disk structures (journal records, snapshot trailers).
 * A torn or bit-flipped record must be *detected*, never trusted;
 * this is the cheapest check that catches both.
 */

#ifndef FLOWGUARD_SUPPORT_CRC32_HH
#define FLOWGUARD_SUPPORT_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace flowguard {

/** CRC-32 of `size` bytes; `seed` chains incremental computations. */
uint32_t crc32(const void *data, size_t size, uint32_t seed = 0);

} // namespace flowguard

#endif // FLOWGUARD_SUPPORT_CRC32_HH

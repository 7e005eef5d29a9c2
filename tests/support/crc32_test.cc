/**
 * @file
 * CRC-32 tests: the standard check value, and a differential test of
 * the slice-by-8 implementation against a bytewise one over every
 * length up to 4 KiB, at every start offset modulo 8, whole and
 * chained through `seed`.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "support/crc32.hh"
#include "support/random.hh"

namespace {

using namespace flowguard;

/** The bytewise table-driven CRC (reflected 0xEDB88320), one table
 *  lookup per byte. */
uint32_t
referenceCrc(const uint8_t *data, size_t size, uint32_t seed = 0)
{
    static const std::array<uint32_t, 256> table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i)
        c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswer)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(check, std::strlen(check)), 0xCBF43926u);
    EXPECT_EQ(crc32(check, 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment)
{
    Rng rng(0xC3C32);
    std::vector<uint8_t> buffer(4096 + 8);
    for (auto &byte : buffer)
        byte = static_cast<uint8_t>(rng.next());
    for (size_t offset = 0; offset < 8; ++offset) {
        const uint8_t *data = buffer.data() + offset;
        for (size_t size = 0; size <= 4096; ++size) {
            const uint32_t expected = referenceCrc(data, size);
            ASSERT_EQ(crc32(data, size), expected)
                << "offset " << offset << " size " << size;
            // Chained: any split point, each half seeded by the last.
            const size_t split = rng.below(size + 1);
            ASSERT_EQ(crc32(data + split, size - split,
                            crc32(data, split)),
                      expected)
                << "offset " << offset << " size " << size
                << " split " << split;
        }
    }
}

TEST(Crc32, SeedChainsLikeTheReference)
{
    Rng rng(77);
    std::vector<uint8_t> buffer(1000);
    for (auto &byte : buffer)
        byte = static_cast<uint8_t>(rng.next());
    for (const uint32_t seed : {0u, 1u, 0xFFFFFFFFu, 0xDEADBEEFu}) {
        for (size_t size : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                            size_t{9}, size_t{1000}})
            EXPECT_EQ(crc32(buffer.data(), size, seed),
                      referenceCrc(buffer.data(), size, seed))
                << "seed " << seed << " size " << size;
    }
}

} // namespace

/**
 * @file
 * Unit tests for the sparse memory.
 */

#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <vector>

#include "cpu/memory.hh"

namespace {

using flowguard::cpu::Memory;

TEST(Memory, UntouchedReadsZero)
{
    Memory mem;
    EXPECT_EQ(mem.read8(0x1234), 0u);
    EXPECT_EQ(mem.read64(0xdeadbeef), 0u);
    EXPECT_EQ(mem.pageCount(), 0u);
}

TEST(Memory, ByteRoundTrip)
{
    Memory mem;
    mem.write8(0x42, 0xAB);
    EXPECT_EQ(mem.read8(0x42), 0xAB);
    EXPECT_EQ(mem.read8(0x43), 0u);
}

TEST(Memory, Word64RoundTrip)
{
    Memory mem;
    mem.write64(0x1000, 0x1122334455667788ULL);
    EXPECT_EQ(mem.read64(0x1000), 0x1122334455667788ULL);
    // Little-endian byte layout.
    EXPECT_EQ(mem.read8(0x1000), 0x88);
    EXPECT_EQ(mem.read8(0x1007), 0x11);
}

TEST(Memory, CrossPageWord)
{
    Memory mem;
    const uint64_t addr = Memory::page_size - 3;
    mem.write64(addr, 0xA1B2C3D4E5F60718ULL);
    EXPECT_EQ(mem.read64(addr), 0xA1B2C3D4E5F60718ULL);
    EXPECT_EQ(mem.pageCount(), 2u);
}

TEST(Memory, BulkReadWrite)
{
    Memory mem;
    std::vector<uint8_t> data{1, 2, 3, 4, 5};
    mem.writeBytes(0x2000, data);
    uint8_t out[5] = {};
    mem.readBytes(0x2000, out, 5);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[i], data[static_cast<size_t>(i)]);
}

TEST(Memory, ClearDropsEverything)
{
    Memory mem;
    mem.write64(0x1000, 77);
    mem.clear();
    EXPECT_EQ(mem.read64(0x1000), 0u);
    EXPECT_EQ(mem.pageCount(), 0u);
}

TEST(Memory, HighAddressesWork)
{
    Memory mem;
    const uint64_t addr = 0x7ffffffff000ULL - 8;
    mem.write64(addr, 42);
    EXPECT_EQ(mem.read64(addr), 42u);
}

// --- the page cache ----------------------------------------------------------

TEST(Memory, UntouchedReadDoesNotPoisonTheCache)
{
    Memory mem;
    EXPECT_EQ(mem.read64(0x5000), 0u);
    EXPECT_EQ(mem.read8(0x5008), 0u);
    EXPECT_EQ(mem.pageCount(), 0u);
    mem.write64(0x5000, 0xfeedULL);
    EXPECT_EQ(mem.read64(0x5000), 0xfeedULL);
    EXPECT_EQ(mem.pageCount(), 1u);
}

TEST(Memory, ReadsAfterClearReturnZero)
{
    Memory mem;
    for (uint64_t page = 0; page < 8; ++page) {
        mem.write64(page * Memory::page_size + 16, page + 1);
        EXPECT_EQ(mem.read64(page * Memory::page_size + 16), page + 1);
    }
    mem.clear();
    for (uint64_t page = 0; page < 8; ++page)
        EXPECT_EQ(mem.read64(page * Memory::page_size + 16), 0u);
    EXPECT_EQ(mem.pageCount(), 0u);
    mem.write8(Memory::page_size + 1, 9);
    EXPECT_EQ(mem.read8(Memory::page_size + 1), 9u);
    EXPECT_EQ(mem.pageCount(), 1u);
}

TEST(Memory, MovedMemoryReadsItsOwnPages)
{
    Memory a;
    a.write64(0x1000, 1);
    a.write64(0x9000, 2);
    EXPECT_EQ(a.read64(0x1000), 1u);   // both pages now cached in `a`

    Memory b(std::move(a));
    EXPECT_EQ(b.read64(0x1000), 1u);
    EXPECT_EQ(b.read64(0x9000), 2u);
    EXPECT_EQ(b.pageCount(), 2u);
    // The moved-from object is empty, and writing to it leaves `b`
    // alone.
    EXPECT_EQ(a.pageCount(), 0u);
    EXPECT_EQ(a.read64(0x1000), 0u);
    a.write64(0x1000, 3);
    EXPECT_EQ(b.read64(0x1000), 1u);

    Memory c;
    c.write64(0x1000, 4);              // cached in `c` before the move
    c = std::move(b);
    EXPECT_EQ(c.read64(0x1000), 1u);
    EXPECT_EQ(c.read64(0x9000), 2u);
    c.write64(0x9000, 5);
    EXPECT_EQ(c.read64(0x9000), 5u);
    EXPECT_EQ(b.read64(0x9000), 0u);
}

TEST(Memory, IsMoveOnly)
{
    // A copied cache would point into the source's map; nothing copies
    // a Memory, so copying is deleted.
    static_assert(!std::is_copy_constructible_v<Memory>);
    static_assert(!std::is_copy_assignable_v<Memory>);
    static_assert(std::is_nothrow_move_constructible_v<Memory>);
    static_assert(std::is_nothrow_move_assignable_v<Memory>);
}

TEST(Memory, CrossPageWordsWithMorePagesThanCacheSlots)
{
    // Words straddling page edges on pages that map to the same few
    // cache slots, three times as many pages as slots.
    Memory mem;
    const uint64_t pages = 3 * Memory::cache_slots;
    auto addrOf = [](uint64_t i) {
        // Pages 4 slots apart collide in the direct-mapped cache.
        const uint64_t page = 1 + (i % 4) + (i / 4) * Memory::cache_slots;
        return page * Memory::page_size - 3;
    };
    for (uint64_t i = 0; i < pages; ++i)
        mem.write64(addrOf(i), 0x0102030405060708ULL * (i + 1));
    for (uint64_t k = 0; k < pages; ++k) {
        const uint64_t i = (k * 7) % pages;    // a different order
        const uint64_t want = 0x0102030405060708ULL * (i + 1);
        EXPECT_EQ(mem.read64(addrOf(i)), want) << "word " << i;
        uint8_t bytes[8];
        mem.readBytes(addrOf(i), bytes, 8);
        for (int b = 0; b < 8; ++b)
            EXPECT_EQ(bytes[b], static_cast<uint8_t>(want >> (8 * b)));
    }
    // Each word touched its page and the next one; neighbours share.
    std::set<uint64_t> touched;
    for (uint64_t i = 0; i < pages; ++i) {
        touched.insert(addrOf(i) / Memory::page_size);
        touched.insert(addrOf(i) / Memory::page_size + 1);
    }
    EXPECT_EQ(mem.pageCount(), touched.size());
}

TEST(Memory, BulkCopiesSpanPagesAndUntouchedGaps)
{
    Memory mem;
    std::vector<uint8_t> data(3 * Memory::page_size + 100);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 31 + 7);
    const uint64_t base = 5 * Memory::page_size - 50;
    mem.writeBytes(base, data);
    EXPECT_EQ(mem.pageCount(), 5u);
    std::vector<uint8_t> out(data.size() + 2 * Memory::page_size, 0xAA);
    mem.readBytes(base - Memory::page_size, out.data(), out.size());
    for (size_t i = 0; i < out.size(); ++i) {
        const bool inside = i >= Memory::page_size &&
                            i < Memory::page_size + data.size();
        const uint8_t want = inside ? data[i - Memory::page_size] : 0;
        ASSERT_EQ(out[i], want) << "byte " << i;
    }
    // Reading untouched pages materialized nothing.
    EXPECT_EQ(mem.pageCount(), 5u);
}

} // namespace

/**
 * @file
 * Sparse flat memory, 4 KiB pages allocated on first touch.
 *
 * Loads of untouched memory read zero (anonymous-mapping semantics).
 * Write protection is enforced by the Cpu against the program's code
 * ranges (W^X / DEP, an explicit assumption of the paper's threat
 * model), not here.
 *
 * A small direct-mapped cache of page pointers sits in front of the
 * page map, so the interpreter's loads, stores and stack traffic skip
 * the hash lookup. Only materialized pages are cached (a read of an
 * untouched page caches nothing), pages are never freed except by
 * clear(), which empties the cache too. A Memory can be moved but
 * not copied, and a move leaves both caches empty, so no slot ever
 * points into another object's map. Const reads fill the cache, so a
 * Memory must not be read from two threads at once.
 */

#ifndef FLOWGUARD_CPU_MEMORY_HH
#define FLOWGUARD_CPU_MEMORY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace flowguard::cpu {

class Memory
{
  public:
    static constexpr uint64_t page_size = 4096;
    /** Direct-mapped page-cache slots (slot = page number % slots).
     *  The perfbench workloads keep at most 6 pages live per Memory;
     *  at 8 slots under 0.4% of lookups miss, as at 64. */
    static constexpr size_t cache_slots = 8;

    Memory() = default;
    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;
    Memory(Memory &&other) noexcept : _pages(std::move(other._pages))
    {
        other.clear();
    }
    Memory &operator=(Memory &&other) noexcept;

    uint8_t
    read8(uint64_t addr) const
    {
        const Page *page = findPage(addr / page_size);
        return page ? (*page)[addr % page_size] : 0;
    }

    uint64_t
    read64(uint64_t addr) const
    {
        const uint64_t offset = addr % page_size;
        if (offset > page_size - 8)
            return read64Split(addr);
        const Page *page = findPage(addr / page_size);
        if (!page)
            return 0;
        const uint8_t *src = page->data() + offset;
        uint64_t value = 0;
        for (int i = 7; i >= 0; --i)
            value = (value << 8) | src[i];
        return value;
    }

    void
    write8(uint64_t addr, uint8_t value)
    {
        touchPage(addr / page_size)[addr % page_size] = value;
    }

    void
    write64(uint64_t addr, uint64_t value)
    {
        const uint64_t offset = addr % page_size;
        if (offset > page_size - 8) {
            write64Split(addr, value);
            return;
        }
        uint8_t *dst = touchPage(addr / page_size).data() + offset;
        for (int i = 0; i < 8; ++i)
            dst[i] = static_cast<uint8_t>(value >> (8 * i));
    }

    /** Copies `len` bytes out, page by page; untouched pages read 0. */
    void readBytes(uint64_t addr, uint8_t *out, uint64_t len) const;
    /** Copies `len` bytes in, page by page, materializing each page. */
    void writeBytes(uint64_t addr, const uint8_t *in, uint64_t len);
    void writeBytes(uint64_t addr, const std::vector<uint8_t> &in);

    /** Drops all pages and empties the page cache. */
    void clear();

    /** Number of pages currently materialized. */
    std::size_t pageCount() const { return _pages.size(); }

  private:
    using Page = std::array<uint8_t, page_size>;

    /** No address has this page number: it marks an empty slot. */
    static constexpr uint64_t no_page = UINT64_MAX;

    struct Slot
    {
        uint64_t pageNo = no_page;
        Page *page = nullptr;
    };

    /** The page numbered `page_no`, or nullptr if never touched. */
    const Page *
    findPage(uint64_t page_no) const
    {
        const Slot &slot = _cache[page_no % cache_slots];
        return slot.pageNo == page_no ? slot.page : findPageSlow(page_no);
    }

    /** The page numbered `page_no`, materialized (zeroed) if new. */
    Page &
    touchPage(uint64_t page_no)
    {
        const Slot &slot = _cache[page_no % cache_slots];
        return slot.pageNo == page_no ? *slot.page : touchPageSlow(page_no);
    }

    const Page *findPageSlow(uint64_t page_no) const;
    Page &touchPageSlow(uint64_t page_no);
    uint64_t read64Split(uint64_t addr) const;
    void write64Split(uint64_t addr, uint64_t value);
    void dropCache() const { _cache.fill(Slot{}); }

    std::unordered_map<uint64_t, Page> _pages;
    /** Filled from const reads too; only non-const members write
     *  through the pointers it holds. */
    mutable std::array<Slot, cache_slots> _cache{};
};

} // namespace flowguard::cpu

#endif // FLOWGUARD_CPU_MEMORY_HH

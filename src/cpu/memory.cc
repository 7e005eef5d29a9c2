#include "cpu/memory.hh"

#include <algorithm>
#include <cstring>

namespace flowguard::cpu {

Memory &
Memory::operator=(Memory &&other) noexcept
{
    if (this != &other) {
        _pages = std::move(other._pages);
        dropCache();
        other.clear();
    }
    return *this;
}

const Memory::Page *
Memory::findPageSlow(uint64_t page_no) const
{
    auto it = _pages.find(page_no);
    if (it == _pages.end())
        return nullptr;     // not cached: a later write materializes it
    // Page nodes stay put until clear(), which empties the cache.
    Page *page = const_cast<Page *>(&it->second);
    _cache[page_no % cache_slots] = {page_no, page};
    return page;
}

Memory::Page &
Memory::touchPageSlow(uint64_t page_no)
{
    auto [it, inserted] = _pages.try_emplace(page_no);
    if (inserted)
        it->second.fill(0);
    _cache[page_no % cache_slots] = {page_no, &it->second};
    return it->second;
}

uint64_t
Memory::read64Split(uint64_t addr) const
{
    uint64_t value = 0;
    for (int i = 7; i >= 0; --i)
        value = (value << 8) | read8(addr + static_cast<uint64_t>(i));
    return value;
}

void
Memory::write64Split(uint64_t addr, uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        write8(addr + static_cast<uint64_t>(i),
               static_cast<uint8_t>(value >> (8 * i)));
}

void
Memory::readBytes(uint64_t addr, uint8_t *out, uint64_t len) const
{
    while (len > 0) {
        const uint64_t offset = addr % page_size;
        const uint64_t chunk = std::min(len, page_size - offset);
        if (const Page *page = findPage(addr / page_size))
            std::memcpy(out, page->data() + offset, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
Memory::writeBytes(uint64_t addr, const uint8_t *in, uint64_t len)
{
    while (len > 0) {
        const uint64_t offset = addr % page_size;
        const uint64_t chunk = std::min(len, page_size - offset);
        std::memcpy(touchPage(addr / page_size).data() + offset, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

void
Memory::writeBytes(uint64_t addr, const std::vector<uint8_t> &in)
{
    writeBytes(addr, in.data(), in.size());
}

void
Memory::clear()
{
    _pages.clear();
    dropCache();
}

} // namespace flowguard::cpu

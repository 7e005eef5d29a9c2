#include "fuzz/coverage.hh"

#include "support/random.hh"

namespace flowguard::fuzz {

namespace {

/** AFL's hit-count bucketing: 1,2,3,4-7,8-15,16-31,32-127,128+. */
uint8_t
bucket(uint8_t count)
{
    if (count == 0) return 0;
    if (count == 1) return 1 << 0;
    if (count == 2) return 1 << 1;
    if (count == 3) return 1 << 2;
    if (count <= 7) return 1 << 3;
    if (count <= 15) return 1 << 4;
    if (count <= 31) return 1 << 5;
    if (count <= 127) return 1 << 6;
    return 1 << 7;
}

uint64_t
hashLocation(uint64_t addr)
{
    uint64_t state = addr;
    return splitmix64(state);
}

} // namespace

bool
GlobalCoverage::mergeAndCheckNew(const CoverageMap &map)
{
    bool found_new = false;
    const auto &raw = map.raw();
    for (size_t i = 0; i < coverage_map_size; ++i) {
        if (!raw[i])
            continue;
        const uint8_t bits = bucket(raw[i]);
        const uint8_t fresh =
            static_cast<uint8_t>(bits & ~_virgin[i]);
        if (fresh) {
            _virgin[i] |= fresh;
            _bitsSeen += static_cast<size_t>(__builtin_popcount(fresh));
            found_new = true;
        }
    }
    return found_new;
}

void
CoverageSink::onBranch(const cpu::BranchEvent &event)
{
    const uint64_t loc = hashLocation(event.target);
    _map.hit(static_cast<size_t>(loc ^ _prev));
    _prev = loc >> 1;
}

} // namespace flowguard::fuzz

/**
 * @file
 * AFL-style edge-coverage instrumentation (§4.3 step 1).
 *
 * The paper runs the trained application under QEMU user-mode with
 * instrumentation that "discovers any new state transition"; here the
 * interpreter plays QEMU and a TraceSink plays the instrumentation:
 * each retired branch hashes (prev_location, target) into a 64 KiB
 * hit-count map, hit counts are bucketed AFL-style, and an input is
 * interesting iff it flips a virgin bit.
 */

#ifndef FLOWGUARD_FUZZ_COVERAGE_HH
#define FLOWGUARD_FUZZ_COVERAGE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/events.hh"

namespace flowguard::fuzz {

constexpr size_t coverage_map_size = 1 << 16;

/** Per-run hit-count map filled by CoverageSink. */
class CoverageMap
{
  public:
    CoverageMap() { clear(); }

    void
    hit(size_t index)
    {
        uint8_t &cell = _map[index & (coverage_map_size - 1)];
        cell = static_cast<uint8_t>(cell + 1);
        if (cell == 0)
            cell = 255;     // saturate like AFL
    }

    void clear() { _map.fill(0); }

    const std::array<uint8_t, coverage_map_size> &raw() const
    {
        return _map;
    }

  private:
    std::array<uint8_t, coverage_map_size> _map;
};

/** Global virgin map accumulating bucketed coverage across runs. */
class GlobalCoverage
{
  public:
    GlobalCoverage() { _virgin.fill(0); }

    /**
     * Merges a run's (bucketed) map.
     * @retval true the run exposed a new state transition.
     */
    bool mergeAndCheckNew(const CoverageMap &map);

    /** Distinct (edge, bucket) bits seen so far. */
    size_t bitsSeen() const { return _bitsSeen; }

  private:
    std::array<uint8_t, coverage_map_size> _virgin;
    size_t _bitsSeen = 0;
};

/** TraceSink computing AFL edge hashes from retired branches. */
class CoverageSink : public cpu::TraceSink
{
  public:
    explicit CoverageSink(CoverageMap &map)
        : _map(map)
    {}

    void onBranch(const cpu::BranchEvent &event) override;

    /** Resets the prev-location state between runs. */
    void resetState() { _prev = 0; }

  private:
    CoverageMap &_map;
    uint64_t _prev = 0;
};

} // namespace flowguard::fuzz

#endif // FLOWGUARD_FUZZ_COVERAGE_HH

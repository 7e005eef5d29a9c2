/**
 * @file
 * Branch Trace Store model (Table 1 baseline).
 *
 * BTS records every control transfer as an uncompressed (from, to)
 * pair in a memory-resident buffer — no decoding needed, no event
 * filtering, and a very high per-branch tracing cost (a microcoded
 * store on real hardware, ~50x slowdown on SPEC per the paper).
 */

#ifndef FLOWGUARD_TRACE_BTS_HH
#define FLOWGUARD_TRACE_BTS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/cost_model.hh"
#include "cpu/events.hh"

namespace flowguard::trace {

/** One BTS record: branch source and target. */
struct BtsRecord
{
    uint64_t from = 0;
    uint64_t to = 0;
};

class Bts : public cpu::TraceSink
{
  public:
    /** `capacity` records; the buffer wraps when full. */
    explicit Bts(size_t capacity,
                 cpu::CycleAccount *account = nullptr);

    void onBranch(const cpu::BranchEvent &event) override;

    /** Records in age order (oldest first). */
    std::vector<BtsRecord> snapshot() const;

    uint64_t totalRecords() const { return _total; }

  private:
    std::vector<BtsRecord> _ring;
    size_t _cursor = 0;
    bool _wrapped = false;
    uint64_t _total = 0;
    cpu::CycleAccount *_account;
};

} // namespace flowguard::trace

#endif // FLOWGUARD_TRACE_BTS_HH

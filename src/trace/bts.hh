/**
 * @file
 * Branch Trace Store model (Table 1 baseline).
 *
 * BTS records every control transfer as an uncompressed (from, to)
 * pair in a memory-resident buffer — no decoding needed, no event
 * filtering, and a very high per-branch tracing cost (a microcoded
 * store on real hardware, ~50x slowdown on SPEC per the paper). The
 * model counts the records and charges their cost; it keeps no
 * records, because no experiment reads them back.
 */

#ifndef FLOWGUARD_TRACE_BTS_HH
#define FLOWGUARD_TRACE_BTS_HH

#include <cstdint>

#include "cpu/cost_model.hh"
#include "cpu/events.hh"

namespace flowguard::trace {

class Bts : public cpu::TraceSink
{
  public:
    explicit Bts(cpu::CycleAccount *account = nullptr)
        : _account(account)
    {}

    void onBranch(const cpu::BranchEvent &event) override;

    uint64_t totalRecords() const { return _total; }

  private:
    uint64_t _total = 0;
    cpu::CycleAccount *_account;
};

} // namespace flowguard::trace

#endif // FLOWGUARD_TRACE_BTS_HH

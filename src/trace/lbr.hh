/**
 * @file
 * Last Branch Record model (Table 1 baseline).
 *
 * A 16- or 32-entry register stack of the most recent branch pairs,
 * with CoFI-type filtering (e.g. ignore conditional branches, the
 * configuration kBouncer/ROPecker rely on). Very low tracing cost but
 * only a bounded history — the imprecision the paper's related work
 * exploits criticizes.
 */

#ifndef FLOWGUARD_TRACE_LBR_HH
#define FLOWGUARD_TRACE_LBR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/cost_model.hh"
#include "cpu/events.hh"

namespace flowguard::trace {

/** One LBR entry. */
struct LbrEntry
{
    uint64_t from = 0;
    uint64_t to = 0;
    cpu::BranchKind kind = cpu::BranchKind::DirectJump;
};

/** LBR_SELECT-style CoFI filtering. */
struct LbrConfig
{
    size_t depth = 16;          ///< 16 or 32 on real parts
    bool recordConditional = true;
    bool recordDirect = true;   ///< direct jmp/call
    bool recordIndirect = true; ///< indirect jmp/call
    bool recordReturns = true;
};

class Lbr : public cpu::TraceSink
{
  public:
    explicit Lbr(LbrConfig config,
                 cpu::CycleAccount *account = nullptr);

    void onBranch(const cpu::BranchEvent &event) override;

    /** Entries oldest-first; size() <= depth. */
    std::vector<LbrEntry> snapshot() const;

    uint64_t totalRecorded() const { return _total; }

  private:
    LbrConfig _config;
    std::vector<LbrEntry> _ring;
    size_t _cursor = 0;
    bool _wrapped = false;
    uint64_t _total = 0;
    cpu::CycleAccount *_account;
};

} // namespace flowguard::trace

#endif // FLOWGUARD_TRACE_LBR_HH

/**
 * @file
 * GapLedger — the no-silent-gap cycle accounting.
 *
 * Every cycle a protected process retires belongs to exactly one of
 * four classes: checked (a verdict existed for its window), deferred
 * (verdict late but guaranteed), lossy (judged over damaged trace)
 * or gap (no checker existed). The ledger enforces that by
 * construction: each window attribution charges the cycles since the
 * previous attribution to a single class, so the identity
 *
 *   checked + deferred + lossy + gap == cycles retired
 *
 * cannot drift — it can only fail if a window was never attributed
 * at all, which is precisely the silent gap the subsystem exists to
 * rule out. Tests assert identityHolds() after every scenario,
 * crashed or not.
 */

#ifndef FLOWGUARD_RECOVERY_GAP_LEDGER_HH
#define FLOWGUARD_RECOVERY_GAP_LEDGER_HH

#include <cstdint>
#include <map>

#include "runtime/service.hh"

namespace flowguard::recovery {

class GapLedger
{
  public:
    struct Buckets
    {
        uint64_t checked = 0;
        uint64_t deferred = 0;
        uint64_t lossy = 0;
        uint64_t gap = 0;

        uint64_t
        total() const
        {
            return checked + deferred + lossy + gap;
        }
    };

    /** Starts accounting `cr3` at `inst_now` (usually 0, before the
     *  process runs). Idempotent. */
    void begin(uint64_t cr3, uint64_t inst_now);

    /** Charges the cycles since the last attribution to `cls`. */
    void attribute(uint64_t cr3, uint64_t inst_now,
                   runtime::ProtectionWindowClass cls);

    /** Fleet-wide sums. */
    Buckets totals() const;

    /**
     * The accounting identity for one process: every cycle from
     * begin() to `final_inst` is attributed, and to exactly one
     * class. False when cycles ran after the last attribution (a
     * window nobody accounted for) or the process was never begun.
     */
    bool identityHolds(uint64_t cr3, uint64_t final_inst) const;

  private:
    struct Entry
    {
        uint64_t firstInst = 0;
        uint64_t lastInst = 0;
        Buckets buckets;
    };

    std::map<uint64_t, Entry> _entries;
};

} // namespace flowguard::recovery

#endif // FLOWGUARD_RECOVERY_GAP_LEDGER_HH

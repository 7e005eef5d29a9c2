/**
 * @file
 * Intel CET model (§6): hardware shadow stack + ENDBRANCH-style
 * indirect branch tracking, enforced at retirement.
 *
 * Backward edges: every call pushes the return address onto a
 * hardware shadow stack; every return must match it exactly — this
 * kills conventional ROP outright.
 *
 * Forward edges: an indirect jump/call may land only on an
 * ENDBRANCH-marked location. Compilers mark every function entry (and
 * jump-table landing pads), so the policy is coarse: *any* function
 * entry is a legal target. That is precisely the §6 criticism — CET
 * "seems like a killer for ROP attacks, [but] its coarse-grained
 * protection for forward edges makes it still problematic for other
 * code reuse attacks, e.g., JOP, COOP, CFB" — which the COOP
 * experiment demonstrates against this model.
 */

#ifndef FLOWGUARD_RUNTIME_CET_HH
#define FLOWGUARD_RUNTIME_CET_HH

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "cpu/events.hh"
#include "isa/program.hh"

namespace flowguard::runtime {

/** One CET exception record. */
struct CetViolation
{
    uint64_t source = 0;
    uint64_t target = 0;
    std::string reason;
};

class CetMonitor : public cpu::TraceSink
{
  public:
    explicit CetMonitor(const isa::Program &program);

    void onBranch(const cpu::BranchEvent &event) override;

    bool violated() const { return !_violations.empty(); }
    const std::vector<CetViolation> &violations() const
    {
        return _violations;
    }

  private:
    bool endbranchMarked(uint64_t target) const;

    const isa::Program &_program;
    std::unordered_set<uint64_t> _legalTargets;
    std::vector<uint64_t> _shadowStack;
    std::vector<CetViolation> _violations;
};

} // namespace flowguard::runtime

#endif // FLOWGUARD_RUNTIME_CET_HH

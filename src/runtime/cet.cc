#include "runtime/cet.hh"

namespace flowguard::runtime {

using cpu::BranchEvent;
using cpu::BranchKind;

CetMonitor::CetMonitor(const isa::Program &program)
    : _program(program)
{
    // ENDBRANCH placement: every function entry, mirroring what
    // compilers emit with -fcf-protection. Jump-table landing pads
    // need no marks of their own: table contents are function entries
    // in our programs.
    for (const auto &fn : program.functions())
        _legalTargets.insert(fn.entry);
}

bool
CetMonitor::endbranchMarked(uint64_t target) const
{
    return _legalTargets.count(target) != 0;
}

void
CetMonitor::onBranch(const BranchEvent &event)
{
    switch (event.kind) {
      case BranchKind::DirectCall:
      case BranchKind::IndirectCall: {
        const uint64_t ret_addr = _program.isCode(event.source)
            ? _program.nextAddr(event.source) : 0;
        _shadowStack.push_back(ret_addr);
        if (event.kind == BranchKind::IndirectCall &&
            !endbranchMarked(event.target)) {
            _violations.push_back({event.source, event.target,
                                   "indirect call to non-ENDBRANCH"});
        }
        break;
      }

      case BranchKind::IndirectJump:
        if (!endbranchMarked(event.target)) {
            _violations.push_back({event.source, event.target,
                                   "indirect jump to non-ENDBRANCH"});
        }
        break;

      case BranchKind::Return: {
        if (_shadowStack.empty()) {
            _violations.push_back({event.source, event.target,
                                   "shadow stack underflow"});
            break;
        }
        const uint64_t expected = _shadowStack.back();
        _shadowStack.pop_back();
        if (event.target != expected) {
            _violations.push_back({event.source, event.target,
                                   "shadow stack mismatch"});
        }
        break;
      }

      default:
        break;
    }
}

} // namespace flowguard::runtime

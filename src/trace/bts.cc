#include "trace/bts.hh"

namespace flowguard::trace {

using cpu::BranchEvent;
using cpu::BranchKind;

void
Bts::onBranch(const BranchEvent &event)
{
    // BTS has no filtering at all: every transfer is stored, including
    // direct jumps/calls the other mechanisms elide.
    if (event.kind == BranchKind::SyscallEntry ||
        event.kind == BranchKind::SyscallExit)
        return;     // kernel-side records are outside our model

    ++_total;
    if (_account)
        _account->trace += cpu::cost::bts_record_per_branch;
}

} // namespace flowguard::trace

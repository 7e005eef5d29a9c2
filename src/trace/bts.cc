#include "trace/bts.hh"

#include "support/logging.hh"

namespace flowguard::trace {

using cpu::BranchEvent;
using cpu::BranchKind;

Bts::Bts(size_t capacity, cpu::CycleAccount *account)
    : _ring(capacity), _account(account)
{
    fg_assert(capacity > 0, "BTS buffer must be non-empty");
}

void
Bts::onBranch(const BranchEvent &event)
{
    // BTS has no filtering at all: every transfer is stored, including
    // direct jumps/calls the other mechanisms elide.
    if (event.kind == BranchKind::SyscallEntry ||
        event.kind == BranchKind::SyscallExit)
        return;     // kernel-side records are outside our model

    _ring[_cursor] = {event.source, event.target};
    _cursor = (_cursor + 1) % _ring.size();
    if (_cursor == 0)
        _wrapped = true;
    ++_total;
    if (_account)
        _account->trace += cpu::cost::bts_record_per_branch;
}

std::vector<BtsRecord>
Bts::snapshot() const
{
    std::vector<BtsRecord> out;
    if (!_wrapped) {
        out.assign(_ring.begin(),
                   _ring.begin() + static_cast<int64_t>(_cursor));
        return out;
    }
    out.reserve(_ring.size());
    out.insert(out.end(),
               _ring.begin() + static_cast<int64_t>(_cursor),
               _ring.end());
    out.insert(out.end(), _ring.begin(),
               _ring.begin() + static_cast<int64_t>(_cursor));
    return out;
}

} // namespace flowguard::trace

#include "trace/lbr.hh"

#include "support/logging.hh"

namespace flowguard::trace {

using cpu::BranchEvent;
using cpu::BranchKind;

Lbr::Lbr(LbrConfig config, cpu::CycleAccount *account)
    : _config(config), _ring(config.depth), _account(account)
{
    fg_assert(config.depth > 0, "LBR depth must be positive");
}

void
Lbr::onBranch(const BranchEvent &event)
{
    bool record;
    switch (event.kind) {
      case BranchKind::CondTaken:
        record = _config.recordConditional;
        break;
      case BranchKind::CondNotTaken:
        // LBR only logs taken branches.
        record = false;
        break;
      case BranchKind::DirectJump:
      case BranchKind::DirectCall:
        record = _config.recordDirect;
        break;
      case BranchKind::IndirectJump:
      case BranchKind::IndirectCall:
        record = _config.recordIndirect;
        break;
      case BranchKind::Return:
        record = _config.recordReturns;
        break;
      case BranchKind::SyscallEntry:
      case BranchKind::SyscallExit:
        record = false;
        break;
      default:
        record = false;
        break;
    }
    if (!record)
        return;

    _ring[_cursor] = {event.source, event.target, event.kind};
    _cursor = (_cursor + 1) % _ring.size();
    if (_cursor == 0)
        _wrapped = true;
    ++_total;
    if (_account)
        _account->trace += cpu::cost::lbr_record_per_branch;
}

std::vector<LbrEntry>
Lbr::snapshot() const
{
    std::vector<LbrEntry> out;
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

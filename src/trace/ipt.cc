#include "trace/ipt.hh"

#include <algorithm>

#include "support/logging.hh"
#include "telemetry/telemetry.hh"

namespace flowguard::trace {

using cpu::BranchEvent;
using cpu::BranchKind;

Topa::Topa(std::vector<size_t> region_sizes)
{
    fg_assert(!region_sizes.empty(), "ToPA needs at least one region");
    size_t total = 0;
    for (size_t size : region_sizes) {
        fg_assert(size > 0, "ToPA regions must be non-empty");
        total += size;
        _regionEnds.push_back(total);
    }
    _capacity = total;
    _storage.assign(total, 0);
}

void
Topa::write(const uint8_t *data, size_t len)
{
    if (_overflowing) {
        // The PMI is still pending: output is stalled and the whole
        // packet is lost.
        absorbDropped(len);
        return;
    }
    for (size_t i = 0; i < len; ++i) {
        _storage[_cursor] = data[i];
        if (_wrapped)
            _storage[_capacity + _cursor] = data[i];
        ++_cursor;
        ++_totalWritten;
        if (_cursor == _capacity) {
            // Last region filled: wrap to the head and raise the PMI.
            // From here on view() ends in the mirror half.
            _cursor = 0;
            if (!_wrapped)
                _storage.resize(2 * _capacity);
            _wrapped = true;
            if (_pmiLatencyBytes == 0) {
                // Instant service: the handler runs inside the wrap.
                if (_pmi)
                    _pmi();
            } else {
                // Service latency: output stalls until the handler
                // runs. The packet in flight is dropped whole — the
                // hardware pads out the region tail rather than
                // committing a torn packet prefix a decoder could
                // misparse as a valid packet with garbage payload.
                _overflowing = true;
                _latencyRemaining = _pmiLatencyBytes;
                const size_t torn = i + 1 < len ? i + 1 : 0;
                for (size_t k = 0; k < torn; ++k)
                    _storage[_capacity - 1 - k] = 0x00;
                _droppedBytes += torn;
                absorbDropped(len - i - 1);
                return;
            }
        }
    }
}

void
Topa::absorbDropped(size_t len)
{
    _droppedBytes += len;
    if (len < _latencyRemaining) {
        _latencyRemaining -= len;
        return;
    }
    // The handler finally runs: it examines the buffer as captured at
    // the wrap (the PMI callback), then tracing restarts and the
    // encoder owes the stream an OVF + PSB resync.
    _latencyRemaining = 0;
    _overflowing = false;
    _ovfResyncPending = true;
    ++_overflowEpisodes;
    if (_pmi)
        _pmi();
}

std::vector<uint8_t>
Topa::snapshot() const
{
    // Assembled from the primary half alone, so a mirror that fell
    // behind would show as a view() != snapshot() mismatch.
    std::vector<uint8_t> out;
    if (!_wrapped) {
        out.assign(_storage.begin(),
                   _storage.begin() + static_cast<int64_t>(_cursor));
        return out;
    }
    out.reserve(_capacity);
    out.insert(out.end(),
               _storage.begin() + static_cast<int64_t>(_cursor),
               _storage.begin() + static_cast<int64_t>(_capacity));
    out.insert(out.end(), _storage.begin(),
               _storage.begin() + static_cast<int64_t>(_cursor));
    return out;
}

void
Topa::clear()
{
    std::fill(_storage.begin(), _storage.end(), 0);
    _cursor = 0;
    _wrapped = false;
    _totalWritten = 0;
    _overflowing = false;
    _ovfResyncPending = false;
    _latencyRemaining = 0;
    _overflowEpisodes = 0;
    _droppedBytes = 0;
}

IptEncoder::IptEncoder(IptConfig config, Topa &topa,
                       cpu::CycleAccount *account)
    : _config(std::move(config)), _topa(topa), _account(account)
{}

void
IptEncoder::emit(const std::vector<uint8_t> &bytes)
{
    _topa.write(bytes.data(), bytes.size());
    _stats.bytes += bytes.size();
    _bytesSincePsb += bytes.size();
    if (_account)
        _account->trace +=
            static_cast<double>(bytes.size()) *
            cpu::cost::ipt_trace_per_byte;
}

void
IptEncoder::maybePsb()
{
    if (_started && _bytesSincePsb < _config.psbPeriodBytes)
        return;
    flushTnt();
    _scratch.clear();
    appendPsb(_scratch);
    appendPsbEnd(_scratch);
    emit(_scratch);
    ++_stats.psbPackets;
    _bytesSincePsb = 0;
    _lastIp = 0;    // decoder state resets at PSB; mirror it
    _started = true;
}

void
IptEncoder::maybeOvfResync()
{
    if (!_topa.consumeOvfResyncPending())
        return;
    // An overflow episode just ended: packets — including any TNT
    // outcomes buffered across the gap — were lost. Mark the loss
    // with OVF and resync the decoder with a fresh PSB; the next
    // traced branch re-establishes context via TIP.PGE.
    _tntBits = 0;
    _tntCount = 0;
    _scratch.clear();
    appendOvf(_scratch);
    appendPsb(_scratch);
    appendPsbEnd(_scratch);
    emit(_scratch);
    ++_stats.ovfPackets;
    ++_stats.psbPackets;
    if (_telemetry)
        _telemetry->instant(telemetry::EventKind::Overflow,
                            _telemetryCr3, _stats.ovfPackets);
    _bytesSincePsb = 0;
    _lastIp = 0;
    _contextOn = false;
    _started = true;
}

void
IptEncoder::flushTnt()
{
    maybeOvfResync();
    if (_tntCount == 0)
        return;
    _scratch.clear();
    appendTnt(_scratch, _tntBits, _tntCount);
    emit(_scratch);
    ++_stats.tntPackets;
    _stats.tntBits += static_cast<uint64_t>(_tntCount);
    _tntBits = 0;
    _tntCount = 0;
}

void
IptEncoder::restartStream()
{
    _tntBits = 0;
    _tntCount = 0;
    _lastIp = 0;
    _bytesSincePsb = 0;
    _started = false;   // next packet re-opens with a PSB (maybePsb)
}

void
IptEncoder::reconfigureCr3(uint64_t cr3)
{
    _config.cr3Match = cr3;
    ++_reconfigs;
    if (_account)
        _account->other += cpu::cost::ipt_reconfigure;
}

bool
IptEncoder::passesFilters(const BranchEvent &event) const
{
    if (_config.cr3Filter) {
        if (!_config.cr3MatchSet.empty()) {
            bool any = false;
            for (uint64_t cr3 : _config.cr3MatchSet)
                any |= event.cr3 == cr3;
            if (!any)
                return false;
        } else if (event.cr3 != _config.cr3Match) {
            return false;
        }
    }
    if (!_config.ipRanges.empty()) {
        bool in_range = false;
        for (const auto &[lo, hi] : _config.ipRanges) {
            if (event.source >= lo && event.source < hi) {
                in_range = true;
                break;
            }
        }
        if (!in_range)
            return false;
    }
    return true;
}

void
IptEncoder::onBranch(const BranchEvent &event)
{
    if (!_config.traceEn || !_config.branchEn)
        return;

    maybeOvfResync();

    const bool on = passesFilters(event);
    if (!on) {
        if (_contextOn) {
            // Leaving the filtered context: TIP.PGD, IP suppressed.
            maybePsb();
            flushTnt();
            _scratch.clear();
            appendTipClass(_scratch, opcode::tip_pgd, 0, _lastIp,
                           /*suppress=*/true);
            emit(_scratch);
            ++_stats.pgdPackets;
            _contextOn = false;
        }
        return;
    }

    maybePsb();

    if (!_contextOn) {
        if (event.kind == BranchKind::SyscallEntry)
            return;     // still outside the traced context
        // (Re)entering the filtered context: TIP.PGE at the target.
        // The PGE subsumes the branch itself — emitting the branch's
        // own TNT/TIP as well would desynchronize the decoder.
        flushTnt();
        _scratch.clear();
        appendTipClass(_scratch, opcode::tip_pge, event.target, _lastIp);
        emit(_scratch);
        ++_stats.pgePackets;
        _contextOn = true;
        return;
    }

    switch (event.kind) {
      case BranchKind::DirectJump:
      case BranchKind::DirectCall:
        // Statically known control flow: no packet (Table 3).
        break;

      case BranchKind::CondTaken:
      case BranchKind::CondNotTaken: {
        const uint8_t bit =
            event.kind == BranchKind::CondTaken ? 1 : 0;
        _tntBits |= static_cast<uint8_t>(bit << _tntCount);
        ++_tntCount;
        if (_tntCount == 6)
            flushTnt();
        break;
      }

      case BranchKind::IndirectJump:
      case BranchKind::IndirectCall:
      case BranchKind::Return:
        flushTnt();
        _scratch.clear();
        appendTipClass(_scratch, opcode::tip, event.target, _lastIp);
        emit(_scratch);
        ++_stats.tipPackets;
        break;

      case BranchKind::SyscallEntry:
        // Far transfer with OS tracing disabled: FUP at the syscall
        // instruction, then TIP.PGD as tracing pauses in the kernel.
        flushTnt();
        _scratch.clear();
        appendTipClass(_scratch, opcode::fup, event.source, _lastIp);
        appendTipClass(_scratch, opcode::tip_pgd, 0, _lastIp,
                       /*suppress=*/true);
        emit(_scratch);
        ++_stats.fupPackets;
        ++_stats.pgdPackets;
        _contextOn = false;     // next user event re-emits PGE
        break;

      case BranchKind::SyscallExit:
        // Handled by the context-on transition above.
        break;
    }
}

void
registerIptMetrics(telemetry::MetricRegistry &registry,
                   const IptStats &stats, const std::string &prefix)
{
    registry.addSource(prefix, [&stats, prefix](
                                   telemetry::MetricRegistry &r) {
        auto c = [&](const char *name, uint64_t value) {
            r.counter(prefix + "." + name).set(value);
        };
        c("tnt_packets", stats.tntPackets);
        c("tnt_bits", stats.tntBits);
        c("tip_packets", stats.tipPackets);
        c("pge_packets", stats.pgePackets);
        c("pgd_packets", stats.pgdPackets);
        c("fup_packets", stats.fupPackets);
        c("psb_packets", stats.psbPackets);
        c("ovf_packets", stats.ovfPackets);
        c("bytes", stats.bytes);
    });
}

} // namespace flowguard::trace

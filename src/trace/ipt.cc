#include "trace/ipt.hh"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "support/logging.hh"
#include "telemetry/telemetry.hh"

namespace flowguard::trace {

using cpu::BranchEvent;
using cpu::BranchKind;

namespace {

/** A stream identity no Topa has used (0 is never handed out). */
uint64_t
newStream()
{
    static std::atomic<uint64_t> last{0};
    return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace

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
    _storage = std::make_unique_for_overwrite<uint8_t[]>(2 * total);
    _stream = newStream();
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
    size_t done = 0;
    while (done < len) {
        // Copy up to the end of the last region, into the primary
        // half and, once wrapped, its mirror.
        const size_t chunk = std::min(len - done, _capacity - _cursor);
        std::memcpy(_storage.get() + _cursor, data + done, chunk);
        if (_wrapped)
            std::memcpy(_storage.get() + _capacity + _cursor,
                        data + done, chunk);
        _cursor += chunk;
        _totalWritten += chunk;
        done += chunk;
        if (_cursor < _capacity)
            break;
        // Last region filled: wrap to the head and raise the PMI.
        // From here on view() ends in the mirror half.
        _cursor = 0;
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
            const size_t torn = done < len ? done : 0;
            std::memset(_storage.get() + _capacity - torn, 0x00, torn);
            _droppedBytes += torn;
            absorbDropped(len - done);
            return;
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
    const uint8_t *base = _storage.get();
    if (!_wrapped)
        return {base, base + _cursor};
    std::vector<uint8_t> out;
    out.reserve(_capacity);
    out.insert(out.end(), base + _cursor, base + _capacity);
    out.insert(out.end(), base, base + _cursor);
    return out;
}

void
Topa::clear()
{
    _cursor = 0;
    _wrapped = false;
    _totalWritten = 0;
    _stream = newStream();
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
IptEncoder::emit(const PacketBytes &bytes)
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
IptEncoder::emitPsb()
{
    flushTnt();
    PacketBytes bytes;
    appendPsb(bytes);
    appendPsbEnd(bytes);
    emit(bytes);
    ++_stats.psbPackets;
    _bytesSincePsb = 0;
    _lastIp = 0;    // decoder state resets at PSB; mirror it
    _started = true;
}

void
IptEncoder::emitOvfResync()
{
    _topa.consumeOvfResyncPending();
    // An overflow episode just ended: packets — including any TNT
    // outcomes buffered across the gap — were lost. Mark the loss
    // with OVF and resync the decoder with a fresh PSB; the next
    // traced branch re-establishes context via TIP.PGE.
    _tntBits = 0;
    _tntCount = 0;
    PacketBytes bytes;
    appendOvf(bytes);
    appendPsb(bytes);
    appendPsbEnd(bytes);
    emit(bytes);
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
    PacketBytes bytes;
    appendTnt(bytes, _tntBits, _tntCount);
    emit(bytes);
    ++_stats.tntPackets;
    _stats.tntBits += static_cast<uint64_t>(_tntCount);
    _tntBits = 0;
    _tntCount = 0;
}

void
IptEncoder::appendTntBit(bool taken)
{
    _tntBits |= static_cast<uint8_t>(static_cast<unsigned>(taken)
                                     << _tntCount);
    if (++_tntCount == 6)
        flushTnt();
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
IptEncoder::passesFilterLists(const BranchEvent &event) const
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
    // Most events are a conditional outcome in context with nothing
    // else owed: no resync, no PSB, no context change. Each step of
    // the general path below is then a no-op but the TNT bit itself.
    const bool cond = event.kind == BranchKind::CondTaken ||
                      event.kind == BranchKind::CondNotTaken;
    if (cond && _contextOn && !psbDue() && !_topa.ovfResyncPending() &&
        passesFilters(event)) [[likely]] {
        appendTntBit(event.kind == BranchKind::CondTaken);
        return;
    }

    maybeOvfResync();

    if (!passesFilters(event)) {
        if (_contextOn) {
            // Leaving the filtered context: TIP.PGD, IP suppressed.
            maybePsb();
            flushTnt();
            PacketBytes bytes;
            appendTipClass(bytes, opcode::tip_pgd, 0, _lastIp,
                           /*suppress=*/true);
            emit(bytes);
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
        PacketBytes bytes;
        appendTipClass(bytes, opcode::tip_pge, event.target, _lastIp);
        emit(bytes);
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
      case BranchKind::CondNotTaken:
        appendTntBit(event.kind == BranchKind::CondTaken);
        break;

      case BranchKind::IndirectJump:
      case BranchKind::IndirectCall:
      case BranchKind::Return: {
        flushTnt();
        PacketBytes bytes;
        appendTipClass(bytes, opcode::tip, event.target, _lastIp);
        emit(bytes);
        ++_stats.tipPackets;
        break;
      }

      case BranchKind::SyscallEntry: {
        // Far transfer with OS tracing disabled: FUP at the syscall
        // instruction, then TIP.PGD as tracing pauses in the kernel.
        flushTnt();
        PacketBytes bytes;
        appendTipClass(bytes, opcode::fup, event.source, _lastIp);
        appendTipClass(bytes, opcode::tip_pgd, 0, _lastIp,
                       /*suppress=*/true);
        emit(bytes);
        ++_stats.fupPackets;
        ++_stats.pgdPackets;
        _contextOn = false;     // next user event re-emits PGE
        break;
      }

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

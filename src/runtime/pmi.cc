#include "runtime/pmi.hh"

namespace flowguard::runtime {

PmiGuard::PmiGuard(uint64_t cr3, Monitor &monitor,
                   trace::IptEncoder &encoder, trace::Topa &topa,
                   cpu::CycleAccount *account)
    : _cr3(cr3), _monitor(monitor), _encoder(encoder), _topa(topa),
      _account(account)
{
    _topa.setPmiCallback([this] { onPmi(); });
}

bool
PmiGuard::consumePendingKill(uint64_t cr3, ViolationReport &out)
{
    if (!_pending || cr3 != _cr3)
        return false;
    out = std::move(*_pending);
    _pending.reset();
    return true;
}

void
PmiGuard::onPmi()
{
    ++_pmis;
    telemetry::ScopedSpan span(_telemetry,
                               telemetry::SpanKind::PmiCheck, _cr3,
                               _pmis);
    if (_account)
        _account->other += cpu::cost::intercept_per_syscall;
    // The PMI fires from inside the encoder's own ToPA write, so the
    // encoder must not be re-entered here (no TNT flush): at most six
    // buffered conditional outcomes are deferred to the next window,
    // which the checker's head-truncation handling already tolerates.
    // The PMI fires with the write cursor at the ring's head, so the
    // view is the whole buffer, read in place.
    (void)_encoder;
    const CheckVerdict verdict = _monitor.checkFull(_topa.view());
    span.setVerdict(static_cast<uint8_t>(verdict));
    if (verdict == CheckVerdict::Violation) {
        _pending = _monitor.violationReport(_cr3, _pmis,
                                            /*syscall=*/-1);
        _pending->reason = "PMI window: " + _pending->reason;
        span.setPayload(_pending->from, _pending->to);
    }
}

} // namespace flowguard::runtime

#include "telemetry/telemetry.hh"

#include <algorithm>

namespace flowguard::telemetry {

void
Telemetry::setSink(TelemetrySink *sink)
{
    _sink = sink ? sink : &_null;
    _sinkEnabled = _sink->enabled();
}

void
Telemetry::setClock(std::function<uint64_t()> clock)
{
    _clock = std::move(clock);
}

FlightRecorder &
Telemetry::recorder(uint64_t cr3)
{
    auto it = _recorders.find(cr3);
    if (it == _recorders.end()) {
        it = _recorders.emplace(cr3, FlightRecorder()).first;
    }
    return it->second;
}

void
Telemetry::emit(const FlightEvent &event)
{
    recorder(event.cr3).push(event);
    if (_sinkEnabled)
        _sink->onEvent(event);
}

uint64_t
Telemetry::beginSpan(SpanKind kind, uint64_t cr3, uint64_t seq)
{
    OpenSpan span;
    span.id = _nextSpanId++;
    span.kind = kind;
    span.cr3 = cr3;
    span.seq = seq;
    span.begin = now();
    // Parent: innermost still-open span of the same process.
    for (auto it = _open.rbegin(); it != _open.rend(); ++it) {
        if (it->cr3 == cr3) {
            span.parent = it->id;
            break;
        }
    }
    _open.push_back(span);
    return span.id;
}

void
Telemetry::setSpanSeq(uint64_t id, uint64_t seq)
{
    for (OpenSpan &span : _open) {
        if (span.id == id)
            span.seq = seq;
    }
}

void
Telemetry::endSpan(uint64_t id, uint8_t verdict, uint64_t a,
                   uint64_t b)
{
    if (id == 0)
        return;
    auto it = std::find_if(_open.rbegin(), _open.rend(),
                           [id](const OpenSpan &s) {
                               return s.id == id;
                           });
    if (it == _open.rend())
        return;
    FlightEvent event;
    event.kind = EventKind::Span;
    event.span = it->kind;
    event.id = it->id;
    event.parent = it->parent;
    event.cr3 = it->cr3;
    event.seq = it->seq;
    event.begin = it->begin;
    event.end = std::max(now(), it->begin);
    event.verdict = verdict;
    event.a = a;
    event.b = b;
    _open.erase(std::next(it).base());
    emit(event);
}

void
Telemetry::completeSpan(SpanKind kind, uint64_t cr3, uint64_t seq,
                        uint64_t begin, uint64_t end, uint8_t verdict,
                        uint64_t a, uint64_t b)
{
    FlightEvent event;
    event.kind = EventKind::Span;
    event.span = kind;
    event.id = _nextSpanId++;
    event.cr3 = cr3;
    event.seq = seq;
    event.begin = begin;
    event.end = std::max(end, begin);
    event.verdict = verdict;
    event.a = a;
    event.b = b;
    emit(event);
}

void
Telemetry::instant(EventKind kind, uint64_t cr3, uint64_t seq,
                   uint64_t a, uint64_t b)
{
    FlightEvent event;
    event.kind = kind;
    event.cr3 = cr3;
    event.seq = seq;
    event.begin = event.end = now();
    event.a = a;
    event.b = b;
    emit(event);
}

std::vector<FlightEvent>
Telemetry::snapshotFlight(uint64_t cr3) const
{
    auto it = _recorders.find(cr3);
    if (it == _recorders.end())
        return {};
    return it->second.snapshot();
}

std::vector<FlightEvent>
Telemetry::dumpRecorder(uint64_t cr3)
{
    auto snapshot = snapshotFlight(cr3);
    if (_sinkEnabled) {
        for (const auto &event : snapshot)
            _sink->onEvent(event);
    }
    return snapshot;
}

} // namespace flowguard::telemetry

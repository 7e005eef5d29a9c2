#include "telemetry/sink.hh"

#include <fstream>

#include "support/logging.hh"
#include "support/stats.hh"

namespace flowguard::telemetry {

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Trap: return "trap";
      case SpanKind::FastDecode: return "fast-decode";
      case SpanKind::FastCheck: return "fast-check";
      case SpanKind::SlowEscalate: return "slow-escalate";
      case SpanKind::SlowCheck: return "slow-check";
      case SpanKind::FullDecode: return "full-decode";
      case SpanKind::VerdictCommit: return "verdict-commit";
      case SpanKind::Delivery: return "delivery";
      case SpanKind::PmiCheck: return "pmi-check";
      case SpanKind::Barrier: return "barrier";
    }
    return "?";
}

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Span: return "span";
      case EventKind::Overflow: return "overflow";
      case EventKind::Resync: return "resync";
      case EventKind::CreditCommit: return "credit-commit";
      case EventKind::Violation: return "violation";
      case EventKind::VerdictCommitted: return "verdict-committed";
      case EventKind::VerdictDelivered: return "verdict-delivered";
      case EventKind::CheckerCrash: return "checker-crash";
      case EventKind::CheckerRestart: return "checker-restart";
      case EventKind::FaultInjected: return "fault-injected";
    }
    return "?";
}

namespace {

void
writeEventFields(JsonWriter &json, const FlightEvent &event)
{
    json.beginObject();
    json.field("ev", eventKindName(event.kind));
    if (event.kind == EventKind::Span) {
        json.field("span", spanKindName(event.span));
        json.field("id", event.id);
        if (event.parent)
            json.field("parent", event.parent);
    }
    json.field("cr3", event.cr3);
    if (event.seq)
        json.field("seq", event.seq);
    json.field("begin", event.begin);
    if (event.end != event.begin)
        json.field("end", event.end);
    if (event.verdict)
        json.field("verdict", static_cast<uint64_t>(event.verdict));
    if (event.a)
        json.field("a", event.a);
    if (event.b)
        json.field("b", event.b);
    json.endObject();
}

} // namespace

std::string
JsonlSink::toJson(const FlightEvent &event)
{
    JsonWriter json;
    writeEventFields(json, event);
    return json.str();
}

void
JsonlSink::onEvent(const FlightEvent &event)
{
    _out += toJson(event);
    _out += '\n';
    ++_events;
}

void
JsonlSink::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    fg_assert(out.good(), "cannot open JSONL output file");
    out << _out;
    fg_assert(out.good(), "JSONL write failed");
}

void
ChromeTraceSink::onEvent(const FlightEvent &event)
{
    _events.push_back(event);
}

std::string
ChromeTraceSink::render() const
{
    JsonWriter json;
    json.beginObject();
    json.field("displayTimeUnit", "ns");
    json.key("traceEvents").beginArray();
    for (const auto &event : _events) {
        json.beginObject();
        const bool span = event.kind == EventKind::Span;
        json.field("name", span ? spanKindName(event.span)
                                : eventKindName(event.kind));
        json.field("cat", span ? "check" : "event");
        json.field("ph", span ? "X" : "i");
        // 1 sim cycle == 1 us in the viewer; only relative scale
        // matters on the timeline.
        json.field("ts", event.begin);
        if (span)
            json.field("dur", event.end - event.begin);
        else
            json.field("s", "p"); // instant scoped to the process
        json.field("pid", event.cr3);
        json.field("tid", uint64_t{1});
        json.key("args").beginObject();
        if (event.seq)
            json.field("seq", event.seq);
        if (event.verdict)
            json.field("verdict",
                       static_cast<uint64_t>(event.verdict));
        if (event.a)
            json.field("a", event.a);
        if (event.b)
            json.field("b", event.b);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

void
ChromeTraceSink::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    fg_assert(out.good(), "cannot open trace output file");
    out << render() << "\n";
    fg_assert(out.good(), "trace write failed");
}

} // namespace flowguard::telemetry

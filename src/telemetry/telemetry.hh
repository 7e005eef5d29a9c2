/**
 * @file
 * Telemetry — the hub that ties the observability layer together:
 * the metric registry, the span tracer, and the per-process flight
 * recorders, all stamped from one sim-clock source.
 *
 * Producers (kernel, monitor, decoders, service, supervisor) hold a
 * nullable `Telemetry *` and emit through it; a null hub means no
 * instrumentation at all (the telemetry-free baseline), a hub with
 * the default NullSink means flight rings record but nothing is
 * serialized (the near-zero-overhead production default), and a
 * JSONL/Chrome sink turns on full streaming.
 *
 * Span ids are a process-wide monotonic counter and timestamps come
 * from an injected clock (sim cycles from the cost model), so the
 * emitted stream is deterministic under a fixed seed.
 */

#ifndef FLOWGUARD_TELEMETRY_TELEMETRY_HH
#define FLOWGUARD_TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "telemetry/events.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/metrics.hh"
#include "telemetry/sink.hh"

namespace flowguard::telemetry {

class Telemetry
{
  public:
    /** Non-owning; null restores the internal NullSink. */
    void setSink(TelemetrySink *sink);
    TelemetrySink &sink() { return *_sink; }

    /** Sim-clock source; cost-model cycles, never wall clock. */
    void setClock(std::function<uint64_t()> clock);
    uint64_t now() const { return _clock ? _clock() : 0; }

    MetricRegistry &metrics() { return _metrics; }
    const MetricRegistry &metrics() const { return _metrics; }

    // --- spans --------------------------------------------------------------

    /** Opens a span; returns its id. Parent is the innermost span
     *  still open for the same cr3 (0 at top level). */
    uint64_t beginSpan(SpanKind kind, uint64_t cr3, uint64_t seq = 0);

    /** Closes span `id`: records it into the cr3's flight ring and
     *  emits it to the sink. Unknown ids are ignored (the span's
     *  process may have been dropped mid-flight). */
    void endSpan(uint64_t id, uint8_t verdict = 0, uint64_t a = 0,
                 uint64_t b = 0);

    /** Stamps open span `id` with the endpoint seq it turned out to
     *  carry (known only once the check assigned it). */
    void setSpanSeq(uint64_t id, uint64_t seq);

    /**
     * Emits an already-bounded span in one call — the async shape
     * (escalations resolved cycles after they were enqueued) where
     * holding a span open across the deferral would leak on shed or
     * crash-wipe paths.
     */
    void completeSpan(SpanKind kind, uint64_t cr3, uint64_t seq,
                      uint64_t begin, uint64_t end,
                      uint8_t verdict = 0, uint64_t a = 0,
                      uint64_t b = 0);

    /** Point event at now(). */
    void instant(EventKind kind, uint64_t cr3, uint64_t seq = 0,
                 uint64_t a = 0, uint64_t b = 0);

    // --- flight recorders ---------------------------------------------------

    FlightRecorder &recorder(uint64_t cr3);

    /** Oldest-first copy of cr3's ring; empty if never written. */
    std::vector<FlightEvent> snapshotFlight(uint64_t cr3) const;

    /**
     * Forensic dump: re-emits cr3's entire ring to the sink (so the
     * stream carries the pre-crash story even if earlier events
     * predate sink attachment) and returns the snapshot. Called by
     * the RecoverySupervisor on checker death.
     */
    std::vector<FlightEvent> dumpRecorder(uint64_t cr3);

    /** Number of processes with a live flight ring. */
    size_t processCount() const { return _recorders.size(); }

  private:
    struct OpenSpan
    {
        uint64_t id = 0;
        uint64_t parent = 0;
        SpanKind kind = SpanKind::Trap;
        uint64_t cr3 = 0;
        uint64_t seq = 0;
        uint64_t begin = 0;
    };

    void emit(const FlightEvent &event);

    NullSink _null;
    TelemetrySink *_sink = &_null;
    bool _sinkEnabled = false;
    std::function<uint64_t()> _clock;
    MetricRegistry _metrics;
    std::map<uint64_t, FlightRecorder> _recorders;
    std::vector<OpenSpan> _open;
    uint64_t _nextSpanId = 1;
};

/**
 * RAII span that tolerates a null hub — the pattern every producer
 * uses so the telemetry-free configuration stays branch-cheap:
 *
 *   ScopedSpan span(_telemetry, SpanKind::FastCheck, cr3, seq);
 *   ... work ...
 *   span.setVerdict(v);
 */
class ScopedSpan
{
  public:
    ScopedSpan(Telemetry *telemetry, SpanKind kind, uint64_t cr3,
               uint64_t seq = 0)
        : _telemetry(telemetry)
    {
        if (_telemetry)
            _id = _telemetry->beginSpan(kind, cr3, seq);
    }

    ~ScopedSpan() { finish(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void setVerdict(uint8_t verdict) { _verdict = verdict; }
    void
    setSeq(uint64_t seq)
    {
        if (_telemetry && _id)
            _telemetry->setSpanSeq(_id, seq);
    }
    void setPayload(uint64_t a, uint64_t b = 0) { _a = a; _b = b; }

    void
    finish()
    {
        if (_telemetry && _id) {
            _telemetry->endSpan(_id, _verdict, _a, _b);
            _id = 0;
        }
    }

  private:
    Telemetry *_telemetry = nullptr;
    uint64_t _id = 0;
    uint8_t _verdict = 0;
    uint64_t _a = 0;
    uint64_t _b = 0;
};

} // namespace flowguard::telemetry

#endif // FLOWGUARD_TELEMETRY_TELEMETRY_HH

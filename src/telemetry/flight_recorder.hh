/**
 * @file
 * FlightRecorder — fixed-size ring of the most recent telemetry
 * events for one protected process.
 *
 * The point is forensics, not statistics: when a CfiViolation,
 * TraceLoss, or ProtectionGap report fires (or the checker dies),
 * the ring is snapshotted into the report so a conviction comes with
 * the last-N-events story of how it happened — which windows drained,
 * what the decoder skipped, which credit commits landed.
 *
 * The ring never allocates after construction and never blocks the
 * check path: push is a copy into a preallocated slot.
 */

#ifndef FLOWGUARD_TELEMETRY_FLIGHT_RECORDER_HH
#define FLOWGUARD_TELEMETRY_FLIGHT_RECORDER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/events.hh"

namespace flowguard::telemetry {

class FlightRecorder
{
  public:
    static constexpr size_t kDefaultCapacity = 64;

    FlightRecorder() : _ring(kDefaultCapacity) {}

    void
    push(const FlightEvent &event)
    {
        _ring[_next] = event;
        _next = (_next + 1) % _ring.size();
        if (_size < _ring.size())
            ++_size;
        else
            ++_dropped;
        ++_pushed;
    }

    /** Oldest-first copy of the ring's live contents. */
    std::vector<FlightEvent>
    snapshot() const
    {
        std::vector<FlightEvent> out;
        out.reserve(_size);
        const size_t start =
            (_next + _ring.size() - _size) % _ring.size();
        for (size_t i = 0; i < _size; ++i)
            out.push_back(_ring[(start + i) % _ring.size()]);
        return out;
    }

    void
    clear()
    {
        _next = 0;
        _size = 0;
    }

    size_t size() const { return _size; }
    size_t capacity() const { return _ring.size(); }
    /** Events pushed over the ring's lifetime. */
    uint64_t pushed() const { return _pushed; }
    /** Events that aged out of the ring (overwritten). */
    uint64_t dropped() const { return _dropped; }

  private:
    std::vector<FlightEvent> _ring;
    size_t _next = 0;
    size_t _size = 0;
    uint64_t _pushed = 0;
    uint64_t _dropped = 0;
};

} // namespace flowguard::telemetry

#endif // FLOWGUARD_TELEMETRY_FLIGHT_RECORDER_HH

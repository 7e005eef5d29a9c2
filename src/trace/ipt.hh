/**
 * @file
 * The IPT hardware model: RTIT-style configuration, the ToPA output
 * mechanism and the packet encoder (a TraceSink fed by the CPU).
 *
 * Mirrors §5.1 of the paper: TraceEn/BranchEn enable CoFI packets, the
 * User/OS bits select privilege filtering, CR3Filter + CR3 match value
 * restrict tracing to the protected process, and output goes to a
 * Table-of-Physical-Addresses region chain. Context-switch transitions
 * in and out of the filtered process produce TIP.PGE/TIP.PGD packets,
 * and syscalls (far transfers with OS tracing disabled) produce
 * FUP + TIP.PGD on entry, TIP.PGE on resume — exactly the packet
 * vocabulary the runtime checker has to cope with.
 */

#ifndef FLOWGUARD_TRACE_IPT_HH
#define FLOWGUARD_TRACE_IPT_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cpu/cost_model.hh"
#include "cpu/events.hh"
#include "trace/ipt_packets.hh"

namespace flowguard::telemetry {
class Telemetry;
class MetricRegistry;
} // namespace flowguard::telemetry

namespace flowguard::trace {

/** The IA32_RTIT_* configuration surface we model. */
struct IptConfig
{
    bool traceEn = true;
    bool branchEn = true;
    bool user = true;           ///< trace CPL > 0
    bool os = false;            ///< trace CPL 0 (FlowGuard clears this)
    bool cr3Filter = false;
    uint64_t cr3Match = 0;
    /**
     * §6 hardware suggestion 2: configurable multi-CR3 filtering.
     * When non-empty (and cr3Filter is set), a branch passes if its
     * CR3 matches any entry — no per-context-switch reconfiguration
     * needed for multi-process services.
     */
    std::vector<uint64_t> cr3MatchSet;
    /** Optional IP range filters (ADDRn_A/B); empty = no filtering. */
    std::vector<std::pair<uint64_t, uint64_t>> ipRanges;
    /** Bytes between PSB sync points. */
    uint32_t psbPeriodBytes = 1024;
};

/**
 * Table of Physical Addresses output: a chain of regions written in
 * order; when the last region fills, output wraps to the first and an
 * optional PMI callback fires (the buffer-full interrupt of §5.2).
 *
 * PMI service latency (§7.1.2): on real hardware the interrupt is not
 * serviced instantly — trace output stalls while the handler is
 * pending and the packets generated in that window are dropped. With
 * a non-zero service latency, filling the last region enters an
 * overflow episode: whole packet writes are discarded until
 * `latency` bytes worth have been lost, then the PMI callback runs
 * (the handler finally sees the buffer) and the encoder is told to
 * emit an OVF + PSB resync before the next packet.
 *
 * Once the ring has wrapped, its backing store doubles and every byte
 * written at offset `i` of the current lap is also written at
 * `i + capacity()`. The buffer in age order, [cursor, capacity) from
 * the previous lap then [0, cursor) from this one, is thus always one
 * contiguous range (view()), and a synchronous check reads it where it
 * lies instead of copying it out. A ring that never wraps (the
 * trainer's) never pays for the mirror.
 */
class Topa
{
  public:
    explicit Topa(std::vector<size_t> region_sizes);

    /** Appends bytes, spilling across regions and wrapping. */
    void write(const uint8_t *data, size_t len);

    /** Registers the buffer-full PMI callback. */
    void setPmiCallback(std::function<void()> callback)
    {
        _pmi = std::move(callback);
    }

    /**
     * Models PMI service latency in trace bytes: 0 (default) services
     * the interrupt instantly at the wrap, exactly the old behavior;
     * a positive value drops that many bytes of trace output first.
     */
    void setPmiServiceLatency(size_t latency_bytes)
    {
        _pmiLatencyBytes = latency_bytes;
    }

    /**
     * Contents in age order (oldest byte first), in place. After a
     * wrap the oldest bytes are those just ahead of the write cursor.
     * The view is invalidated by the next write() or clear(); a
     * caller that must keep the bytes past that takes snapshot().
     */
    std::span<const uint8_t> view() const
    {
        if (!_wrapped)
            return {_storage.data(), _cursor};
        return {_storage.data() + _cursor, _capacity};
    }

    /** An owned copy of view(), for callers that keep the bytes. */
    std::vector<uint8_t> snapshot() const;

    /** Total bytes ever written (not capped by capacity). */
    uint64_t totalWritten() const { return _totalWritten; }

    /** Sum of region sizes. */
    size_t capacity() const { return _capacity; }

    bool wrapped() const { return _wrapped; }

    /** True while trace output is stalled awaiting PMI service. */
    bool inOverflow() const { return _overflowing; }

    /** Completed overflow episodes (each ends in one OVF marker). */
    uint64_t overflowEpisodes() const { return _overflowEpisodes; }

    /** Trace bytes discarded across all overflow episodes. */
    uint64_t droppedBytes() const { return _droppedBytes; }

    /**
     * True exactly once after an overflow episode ends: the encoder
     * consumes this to emit the OVF + PSB resync sequence.
     */
    bool consumeOvfResyncPending()
    {
        const bool pending = _ovfResyncPending;
        _ovfResyncPending = false;
        return pending;
    }

    void clear();

  private:
    /** Accounts `len` dropped bytes; services the PMI when the
     *  latency budget is exhausted. */
    void absorbDropped(size_t len);

    /** Regions are contiguous here. Once wrapped, the store doubles
     *  and [capacity, capacity + cursor) mirrors [0, cursor). */
    std::vector<uint8_t> _storage;
    std::vector<size_t> _regionEnds;  ///< cumulative region boundaries
    size_t _capacity = 0;
    size_t _cursor = 0;
    bool _wrapped = false;
    uint64_t _totalWritten = 0;
    std::function<void()> _pmi;

    size_t _pmiLatencyBytes = 0;
    bool _overflowing = false;
    bool _ovfResyncPending = false;
    size_t _latencyRemaining = 0;
    uint64_t _overflowEpisodes = 0;
    uint64_t _droppedBytes = 0;
};

/** Per-packet-kind emission counters. */
struct IptStats
{
    uint64_t tntPackets = 0;
    uint64_t tntBits = 0;
    uint64_t tipPackets = 0;
    uint64_t pgePackets = 0;
    uint64_t pgdPackets = 0;
    uint64_t fupPackets = 0;
    uint64_t psbPackets = 0;
    uint64_t ovfPackets = 0;
    uint64_t bytes = 0;
};

/** The packet generator: consumes BranchEvents, emits packet bytes. */
class IptEncoder : public cpu::TraceSink
{
  public:
    IptEncoder(IptConfig config, Topa &topa,
               cpu::CycleAccount *account = nullptr);

    void onBranch(const cpu::BranchEvent &event) override;

    /** Flushes buffered TNT bits (call before decoding a snapshot). */
    void flushTnt();

    /**
     * Resets the packet stream state (IP compression history, TNT
     * buffer, PSB phase) so the next packet opens with a fresh PSB.
     * The kernel calls this after draining + clearing the ToPA at a
     * code-unload barrier: post-barrier windows must be decodable in
     * isolation and can then only contain post-unload TIPs.
     */
    void restartStream();

    /**
     * Rewrites the single CR3 match register, as a kernel must on a
     * context switch when several processes share one filter; charges
     * the reconfiguration cost (an MSR write with tracing quiesced).
     */
    void reconfigureCr3(uint64_t cr3);

    /** Number of reconfigureCr3 calls (§7.2.4 accounting). */
    uint64_t reconfigurations() const { return _reconfigs; }

    /** Wires the observability layer: every OVF resync episode emits
     *  an Overflow instant attributed to `cr3`. Optional. */
    void
    setTelemetry(telemetry::Telemetry *telemetry, uint64_t cr3)
    {
        _telemetry = telemetry;
        _telemetryCr3 = cr3;
    }

    const IptStats &stats() const { return _stats; }
    const IptConfig &config() const { return _config; }

    /** True if the last seen context matched the filters. */
    bool contextOn() const { return _contextOn; }

  private:
    /** Writes one packet group to the ToPA in a single write, so an
     *  overflow drops it whole, and charges its bytes. */
    void emit(const PacketBytes &bytes);
    /** Buffers one conditional outcome, flushing a full TNT. */
    void appendTntBit(bool taken);
    void maybePsb();
    void maybeOvfResync();
    bool passesFilters(const cpu::BranchEvent &event) const;

    IptConfig _config;
    Topa &_topa;
    cpu::CycleAccount *_account;

    uint64_t _lastIp = 0;
    uint8_t _tntBits = 0;
    int _tntCount = 0;
    bool _contextOn = false;
    bool _started = false;
    uint64_t _bytesSincePsb = 0;
    uint64_t _reconfigs = 0;
    IptStats _stats;
    telemetry::Telemetry *_telemetry = nullptr;
    uint64_t _telemetryCr3 = 0;
};

/**
 * Publishes an IptStats into a MetricRegistry as a live source
 * (re-read at every collect()); names are "<prefix>.tnt_packets",
 * "<prefix>.bytes", ... The struct must outlive the registry.
 */
void registerIptMetrics(telemetry::MetricRegistry &registry,
                        const IptStats &stats,
                        const std::string &prefix);

} // namespace flowguard::trace

#endif // FLOWGUARD_TRACE_IPT_HH

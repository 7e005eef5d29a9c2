/**
 * @file
 * Differential oracle for Topa::write.
 *
 * `ref::Topa` below is the ToPA as it was when it stored one byte per
 * loop iteration. It is kept here, test-only, as the specification:
 * the chunked write (memcpy up to the end of the last region, into the
 * primary half and, once wrapped, the mirror) must leave the same
 * bytes, raise the PMI at the same points with the same buffer in
 * view, and drop the same packets whole under PMI service latency.
 *
 * Over seeded region geometries, write lengths (packets longer than
 * the whole ring included), PMI latencies (zero and positive) and PMI
 * handlers that sometimes clear the ring, every write is followed by a
 * comparison of view(), snapshot(), totalWritten(), wrapped(),
 * inOverflow(), droppedBytes(), overflowEpisodes() and the resync
 * flag. view() after each write covers the part of the mirror half
 * the cursor has reached, and snapshot() is read from the primary
 * half, so together they compare the whole store a reader can see.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "support/random.hh"
#include "trace/ipt.hh"

namespace {

using namespace flowguard;

namespace ref {

class Topa
{
  public:
    explicit Topa(std::vector<size_t> region_sizes)
    {
        for (size_t size : region_sizes)
            _capacity += size;
        _storage.assign(_capacity, 0);
    }

    void setPmiCallback(std::function<void()> cb) { _pmi = std::move(cb); }
    void setPmiServiceLatency(size_t bytes) { _pmiLatencyBytes = bytes; }

    void
    write(const uint8_t *data, size_t len)
    {
        if (_overflowing) {
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
                _cursor = 0;
                if (!_wrapped)
                    _storage.resize(2 * _capacity);
                _wrapped = true;
                if (_pmiLatencyBytes == 0) {
                    if (_pmi)
                        _pmi();
                } else {
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

    std::vector<uint8_t>
    view() const
    {
        if (!_wrapped)
            return {_storage.begin(),
                    _storage.begin() + static_cast<int64_t>(_cursor)};
        return {_storage.begin() + static_cast<int64_t>(_cursor),
                _storage.begin() + static_cast<int64_t>(_cursor + _capacity)};
    }

    std::vector<uint8_t>
    snapshot() const
    {
        if (!_wrapped)
            return view();
        std::vector<uint8_t> out(
            _storage.begin() + static_cast<int64_t>(_cursor),
            _storage.begin() + static_cast<int64_t>(_capacity));
        out.insert(out.end(), _storage.begin(),
                   _storage.begin() + static_cast<int64_t>(_cursor));
        return out;
    }

    bool
    consumeOvfResyncPending()
    {
        const bool pending = _ovfResyncPending;
        _ovfResyncPending = false;
        return pending;
    }

    void
    clear()
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

    uint64_t totalWritten() const { return _totalWritten; }
    bool wrapped() const { return _wrapped; }
    bool inOverflow() const { return _overflowing; }
    uint64_t overflowEpisodes() const { return _overflowEpisodes; }
    uint64_t droppedBytes() const { return _droppedBytes; }

  private:
    void
    absorbDropped(size_t len)
    {
        _droppedBytes += len;
        if (len < _latencyRemaining) {
            _latencyRemaining -= len;
            return;
        }
        _latencyRemaining = 0;
        _overflowing = false;
        _ovfResyncPending = true;
        ++_overflowEpisodes;
        if (_pmi)
            _pmi();
    }

    std::vector<uint8_t> _storage;
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

} // namespace ref

/** What a PMI handler saw: where the stream was and the buffer. */
struct PmiSight
{
    uint64_t totalWritten = 0;
    bool inOverflow = false;
    std::vector<uint8_t> view;

    bool
    operator==(const PmiSight &o) const
    {
        return totalWritten == o.totalWritten &&
               inOverflow == o.inOverflow && view == o.view;
    }
};

std::vector<uint8_t>
bytesOf(std::span<const uint8_t> span)
{
    return {span.begin(), span.end()};
}

/** Runs one seeded case; adds its PMIs and overflow episodes to the
 *  counters so the suite can show it reached both. */
void
runCase(uint64_t seed, uint64_t &pmis, uint64_t &episodes)
{
    Rng rng(seed);
    std::vector<size_t> regions(rng.range(1, 4));
    for (size_t &size : regions)
        size = rng.range(1, 40);
    const size_t latency = rng.chance(0.5) ? 0 : rng.range(1, 60);
    // Some handlers drain the ring (clear it) inside the PMI.
    const bool handler_clears = rng.chance(0.25);

    trace::Topa topa(regions);
    ref::Topa want(regions);
    topa.setPmiServiceLatency(latency);
    want.setPmiServiceLatency(latency);
    std::vector<PmiSight> got_pmis, want_pmis;
    uint64_t pmi_count = 0;
    topa.setPmiCallback([&] {
        got_pmis.push_back({topa.totalWritten(), topa.inOverflow(),
                            bytesOf(topa.view())});
        if (handler_clears && (++pmi_count % 3) == 0)
            topa.clear();
    });
    uint64_t want_count = 0;
    want.setPmiCallback([&] {
        want_pmis.push_back(
            {want.totalWritten(), want.inOverflow(), want.view()});
        if (handler_clears && (++want_count % 3) == 0)
            want.clear();
    });

    SCOPED_TRACE("seed " + std::to_string(seed) + " latency " +
                 std::to_string(latency));
    for (int w = 0; w < 400; ++w) {
        // Mostly packet-sized writes, sometimes longer than the ring.
        const size_t len = rng.chance(0.05) ? rng.range(0, 200)
                                            : rng.range(0, 20);
        std::vector<uint8_t> packet(len);
        for (uint8_t &byte : packet)
            byte = static_cast<uint8_t>(rng.range(1, 255));
        topa.write(packet.data(), packet.size());
        want.write(packet.data(), packet.size());

        ASSERT_EQ(bytesOf(topa.view()), want.view()) << "write " << w;
        ASSERT_EQ(topa.snapshot(), want.snapshot()) << "write " << w;
        ASSERT_EQ(bytesOf(topa.view()), topa.snapshot()) << "write " << w;
        ASSERT_EQ(topa.totalWritten(), want.totalWritten());
        ASSERT_EQ(topa.wrapped(), want.wrapped());
        ASSERT_EQ(topa.inOverflow(), want.inOverflow());
        ASSERT_EQ(topa.droppedBytes(), want.droppedBytes());
        ASSERT_EQ(topa.overflowEpisodes(), want.overflowEpisodes());
        ASSERT_EQ(got_pmis.size(), want_pmis.size()) << "write " << w;
        ASSERT_TRUE(got_pmis == want_pmis) << "write " << w;
        if (rng.chance(0.3))
            ASSERT_EQ(topa.consumeOvfResyncPending(),
                      want.consumeOvfResyncPending());
        if (rng.chance(0.01)) {
            episodes += topa.overflowEpisodes();
            topa.clear();
            want.clear();
        }
    }
    pmis += got_pmis.size();
    episodes += topa.overflowEpisodes();
}

TEST(TopaWriteOracle, MatchesByteAtATimeWrite)
{
    uint64_t pmis = 0;
    uint64_t episodes = 0;
    for (uint64_t seed = 1; seed <= 400; ++seed) {
        runCase(seed, pmis, episodes);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(pmis, 1000u);
    EXPECT_GT(episodes, 100u);
}

} // namespace

#include "fuzz/trainer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>

#include "decode/fast_decoder.hh"
#include "trace/ipt.hh"

namespace flowguard::fuzz {

namespace {

using Clock = std::chrono::steady_clock;

/** Each lane's ring, generously sized so a training replay seldom
 *  loses history to a wrap (TrainingStats::inputsTruncated). */
constexpr size_t ring_bytes = size_t{1} << 22;

/**
 * Lanes at most, the caller's included. Replaying is ~95% of training
 * and labeling ~5%, so one labeler could keep ~20 lanes busy; the cap
 * bounds the threads and rings one call holds instead. Training
 * serve's four servers (60 inputs each) on a shared 4-core x86-64 host
 * took 1.38-2.00 s in one lane, 0.82-1.16 s in 2, 0.94-1.07 s in 3 and
 * 0.70-0.80 s in 4 (5 runs each); a larger cap is unmeasured.
 */
constexpr size_t max_lanes = 4;

/**
 * Helpers start only once one input's replay has cost more than this.
 * Starting a thread and hearing back from it took 20-28 µs (p50-p90)
 * on that host, and each helper also wakes once per input and faults
 * in its ring; at 10x a start those costs stay within ~10% of the
 * replays a helper takes over. storm's inputs (~1.3 k instructions,
 * 21-43 µs a replay) stay on the caller; serve's (0.6-1 M
 * instructions, 4-10 ms) go to lanes.
 */
constexpr Clock::duration helper_threshold =
    std::chrono::microseconds(200);

/** Replays one input into its own ring and holds its decode until the
 *  labeler has read it. */
struct Lane
{
    trace::Topa topa{{ring_bytes}};
    decode::TraceCursor cursor;
    bool truncated = false;

    void replay(const RunTarget &target, const Input &input)
    {
        topa.clear();
        // A fresh encoder per input: each replay is a new process,
        // whose trace opens with a PSB and a TIP.PGE.
        trace::IptConfig config;
        trace::IptEncoder encoder(config, topa);
        target(input, &encoder);
        encoder.flushTnt();
        // With no PMI latency the ring drops nothing; an input that
        // outgrows it wraps, and is read from its oldest PSB left.
        truncated = topa.wrapped();
        // A whole-buffer cold start decodes from the oldest PSB (byte
        // 0 unless the ring wrapped), read in place.
        cursor.decode(trace::StreamView{topa.view()}, SIZE_MAX);
    }
};

/**
 * Helper lanes replaying ahead of the labeler. Each helper claims the
 * next input from one counter, replays and decodes it in its own lane,
 * publishes it, and claims another only once the labeler has released
 * it. The caller claims an input itself when no helper has yet, so the
 * claimed inputs are always a prefix of the corpus, and every input a
 * helper claimed is published.
 */
class Helpers
{
  public:
    Helpers(const RunTarget &target, const std::vector<Input> &corpus,
            size_t first, size_t count)
        : _target(target), _corpus(corpus), _slots(corpus.size()),
          _next(first), _lanes(count)
    {
        _threads.reserve(count);   // so only a thread start can throw
        for (Lane &lane : _lanes) {
            try {
                _threads.emplace_back(&Helpers::work, this,
                                      std::ref(lane));
            } catch (const std::system_error &) {
                // Fewer helpers: the caller replays what they would.
                break;
            }
        }
    }

    ~Helpers()
    {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _stopping = true;
        }
        _next.store(_corpus.size());
        _released.notify_all();
        for (std::thread &thread : _threads)
            thread.join();
    }

    Helpers(const Helpers &) = delete;
    Helpers &operator=(const Helpers &) = delete;

    /** Takes input `i` for the caller if no helper has claimed it. */
    bool claim(size_t i)
    {
        size_t expected = i;
        return _next.compare_exchange_strong(expected, i + 1);
    }

    /** The lane holding helper-claimed input `i`, once decoded; a
     *  failure of its replay is rethrown here, in corpus order. */
    const Lane &await(size_t i)
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _published.wait(lock, [&] { return _slots[i].state != Pending; });
        if (_slots[i].error)
            std::rethrow_exception(_slots[i].error);
        return *_slots[i].lane;
    }

    /** Hands input `i`'s lane back to its helper. */
    void release(size_t i)
    {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _slots[i].state = Released;
        }
        _released.notify_all();
    }

  private:
    enum State { Pending, Published, Released };

    struct Slot
    {
        State state = Pending;
        const Lane *lane = nullptr;
        std::exception_ptr error;
    };

    void work(Lane &lane)
    {
        for (;;) {
            const size_t i = _next.fetch_add(1);
            if (i >= _corpus.size())
                return;
            std::exception_ptr error;
            try {
                lane.replay(_target, _corpus[i]);
            } catch (...) {
                error = std::current_exception();
            }
            std::unique_lock<std::mutex> lock(_mutex);
            _slots[i] = {Published, &lane, error};
            _published.notify_one();
            _released.wait(lock, [&] {
                return _slots[i].state == Released || _stopping;
            });
            if (_stopping)
                return;
        }
    }

    const RunTarget &_target;
    const std::vector<Input> &_corpus;

    std::mutex _mutex;
    std::condition_variable _published;  ///< a slot left Pending
    std::condition_variable _released;   ///< a slot Released, or stop
    std::vector<Slot> _slots;            ///< one per corpus input
    bool _stopping = false;

    std::atomic<size_t> _next;           ///< the first unclaimed input
    std::deque<Lane> _lanes;
    std::vector<std::thread> _threads;   ///< last: they use the above
};

} // namespace

TrainingStats
trainItcCfg(analysis::ItcCfg &itc, const RunTarget &target,
            const std::vector<Input> &corpus,
            analysis::PathIndex *paths)
{
    TrainingStats stats;
    std::vector<uint64_t> targets;
    const auto label = [&](const Lane &lane) {
        ++stats.inputsReplayed;
        if (lane.truncated)
            ++stats.inputsTruncated;
        const std::span<const decode::TransitionView> views =
            lane.cursor.views();
        if (paths) {
            targets.clear();
            for (const auto &view : views)
                targets.push_back(view.to);
            paths->observe(targets);
        }
        for (const auto &view : views) {
            if (view.from == 0)
                continue;
            ++stats.transitionsSeen;
            const int64_t edge = itc.findEdge(view.from, view.to);
            if (edge < 0) {
                ++stats.unknownTransitions;
                continue;
            }
            // Trained credit, whatever runtime credit the edge holds.
            if (itc.setHighCredit(edge))
                ++stats.edgesLabeled;
            itc.addTntSequence(edge, view.tnt);
        }
    };

    const size_t lanes = std::clamp<size_t>(
        std::thread::hardware_concurrency(), 1, max_lanes);
    Lane own;
    std::optional<Helpers> helpers;
    for (size_t i = 0; i < corpus.size(); ++i) {
        if (helpers && !helpers->claim(i)) {
            label(helpers->await(i));
            helpers->release(i);
            continue;
        }
        const Clock::time_point start = Clock::now();
        own.replay(target, corpus[i]);
        // Helpers pay off once a replay outweighs helper_threshold. On
        // one core, or with one input left, the caller replays alone.
        const size_t left = corpus.size() - i - 1;
        const size_t wanted =
            lanes > 1 && left > 1 ? std::min(lanes, left) - 1 : 0;
        if (!helpers && wanted > 0 &&
            Clock::now() - start > helper_threshold)
            helpers.emplace(target, corpus, i + 1, wanted);
        label(own);
    }
    return stats;
}

} // namespace flowguard::fuzz

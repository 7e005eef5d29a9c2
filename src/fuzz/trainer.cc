#include "fuzz/trainer.hh"

#include <algorithm>
#include <chrono>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "decode/fast_decoder.hh"
#include "trace/ipt.hh"

namespace flowguard::fuzz {

namespace {

using Clock = std::chrono::steady_clock;

/** Each lane's ring, generously sized so a training replay seldom
 *  loses history to a wrap (TrainingStats::inputsTruncated). */
constexpr size_t ring_bytes = size_t{1} << 22;

/**
 * Replays in flight at most, each in its own lane, the caller's
 * included. Replaying is ~95% of training and labeling ~5%, so one
 * labeler could keep ~20 lanes busy; the cap bounds the threads and
 * rings one call holds instead.
 * Training serve's four servers (60 inputs each) on a shared 4-core
 * x86-64 host took 1.38-2.00 s in one lane, 0.82-1.16 s in 2,
 * 0.94-1.07 s in 3 and 0.70-0.80 s in 4 (5 runs each); a larger cap
 * is unmeasured.
 */
constexpr size_t max_lanes = 4;

/**
 * Lanes start only once one input's replay has cost more than this.
 * A replay in a lane other than the caller's starts a thread:
 * launching a std::async task and getting its result took 10-14 µs
 * (p50-p90) on that host, under ~7% of a replay past the threshold.
 * storm's inputs (~1.3 k instructions, 21-43 µs a replay) stay on the
 * caller; serve's (0.6-1 M instructions, 4-10 ms) go to lanes.
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

    // On one core, or while replays cost less than starting a thread,
    // the caller replays and labels alone, in a lane of its own.
    const size_t most = std::clamp<size_t>(
        std::thread::hardware_concurrency(), 1, max_lanes);
    size_t next = 0;
    {
        Lane own;
        bool cheap = true;
        while (next < corpus.size() && (cheap || most == 1)) {
            const Clock::time_point start = Clock::now();
            own.replay(target, corpus[next++]);
            cheap = Clock::now() - start <= helper_threshold;
            label(own);
        }
    }
    if (next == corpus.size())
        return stats;

    // Then each of `most` new lanes replays its next input as a future,
    // and the caller labels them in corpus order. The first lane's
    // futures are deferred, so the caller replays its inputs at get()
    // and the others each start a thread. On serve (perfbench, seed
    // 201, same host), a thread in its place raised peak RSS ~1 MB, and
    // keeping the caller's lane as the first, beside lanes made one at
    // a time, ~1.3 MB. A future's get() rethrows a failed replay; one
    // that could not start a thread runs there too. Declared after the
    // lanes: destroying a future joins its thread.
    std::vector<Lane> lanes(most);
    std::queue<std::future<Lane *>> in_flight;
    const auto launch = [&](Lane &lane) {
        const std::launch policy = &lane == &lanes[0]
            ? std::launch::deferred
            : std::launch::async | std::launch::deferred;
        in_flight.push(std::async(
            policy, [&target, &lane, &input = corpus[next++]] {
                lane.replay(target, input);
                return &lane;
            }));
    };
    for (size_t k = 0; k < most && next < corpus.size(); ++k)
        launch(lanes[k]);
    while (!in_flight.empty()) {
        Lane &lane = *in_flight.front().get();
        in_flight.pop();
        label(lane);
        if (next < corpus.size())
            launch(lane);
    }
    return stats;
}

} // namespace flowguard::fuzz

#include "fuzz/trainer.hh"

#include "decode/fast_decoder.hh"
#include "trace/ipt.hh"

namespace flowguard::fuzz {

TrainingStats
trainItcCfg(analysis::ItcCfg &itc, const RunTarget &target,
            const std::vector<Input> &corpus,
            analysis::PathIndex *paths)
{
    TrainingStats stats;
    // One ring for the whole corpus, generously sized so a training
    // replay never loses history to a wrap.
    trace::Topa topa({1 << 22});
    decode::TraceCursor cursor;
    std::vector<uint64_t> targets;
    for (const Input &input : corpus) {
        topa.clear();
        // A fresh encoder per input: each replay is a new process,
        // whose trace opens with a PSB and a TIP.PGE.
        trace::IptConfig config;
        trace::IptEncoder encoder(config, topa);
        target(input, &encoder);
        encoder.flushTnt();
        ++stats.inputsReplayed;

        // Byte 0 is the encoder's opening PSB: a whole-buffer cold
        // start decodes the whole input, read in place.
        cursor.decode(trace::StreamView{topa.view()}, SIZE_MAX);
        const std::span<const decode::TransitionView> views =
            cursor.views();
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
    }
    return stats;
}

} // namespace flowguard::fuzz

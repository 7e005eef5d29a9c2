#include "fuzz/trainer.hh"

#include "decode/fast_decoder.hh"
#include "trace/ipt.hh"

namespace flowguard::fuzz {

namespace {

TrainingStats
labelFromFlow(analysis::ItcCfg &itc,
              const decode::FastDecodeResult &flow,
              analysis::PathIndex *paths)
{
    TrainingStats stats;
    auto transitions = decode::extractTipTransitions(flow);
    if (paths) {
        std::vector<uint64_t> targets;
        targets.reserve(transitions.size());
        for (const auto &transition : transitions)
            targets.push_back(transition.to);
        paths->observe(targets);
    }
    for (const auto &transition : transitions) {
        if (transition.from == 0)
            continue;
        ++stats.transitionsSeen;
        const int64_t edge =
            itc.findEdge(transition.from, transition.to);
        if (edge < 0) {
            ++stats.unknownTransitions;
            continue;
        }
        if (!itc.highCredit(edge)) {
            itc.setHighCredit(edge);
            ++stats.edgesLabeled;
        }
        itc.addTntSequence(edge, transition.tnt);
    }
    return stats;
}

} // namespace

TrainingStats
labelFromPackets(analysis::ItcCfg &itc,
                 const std::vector<uint8_t> &packets,
                 analysis::PathIndex *paths)
{
    auto flow = decode::decodePacketLayer(packets);
    return labelFromFlow(itc, flow, paths);
}

TrainingStats
trainItcCfg(analysis::ItcCfg &itc, const RunTarget &target,
            const std::vector<Input> &corpus,
            analysis::PathIndex *paths)
{
    TrainingStats total;
    for (const Input &input : corpus) {
        // Capture this input's full trace, generously buffered so the
        // training replay never loses history to a ToPA wrap.
        trace::Topa topa({1 << 22});
        trace::IptConfig config;
        trace::IptEncoder encoder(config, topa);
        target(input, &encoder);
        encoder.flushTnt();

        TrainingStats one =
            labelFromPackets(itc, topa.snapshot(), paths);
        ++total.inputsReplayed;
        total.transitionsSeen += one.transitionsSeen;
        total.edgesLabeled += one.edgesLabeled;
        total.unknownTransitions += one.unknownTransitions;
    }
    return total;
}

} // namespace flowguard::fuzz

/**
 * @file
 * Training-phase edge labeling (§4.3 step 3).
 *
 * Replays a fuzzing corpus on "real hardware" — the interpreter with
 * the IPT encoder attached — each input as its own traced process.
 * Each input's trace is decoded in place at the packet layer and
 * folded into transition views, as a runtime commit reads them; every
 * ITC-CFG edge observed gets trained high credit plus the TNT
 * sequence seen along it. Training writes the trained layer only,
 * whatever runtime credit the graph already holds.
 *
 * Replays run in lanes: each owns a ring, a fresh encoder per input
 * and a decode cursor. Once one input's replay has cost more than
 * starting a thread, up to three helper threads (four lanes with the
 * caller's, no more than the cores) replay and decode the inputs
 * ahead, while the calling thread labels every input in corpus order
 * and replays one itself when no helper has claimed it yet. So the
 * graph, the n-gram set and the stats are those of replaying one input
 * at a time, and `target` may be called from several threads at once:
 * each call must own its machine state (the program it runs is only
 * read). The threads are joined before trainItcCfg returns; a failure
 * of `target` is rethrown once the inputs before it are labeled.
 */

#ifndef FLOWGUARD_FUZZ_TRAINER_HH
#define FLOWGUARD_FUZZ_TRAINER_HH

#include <vector>

#include "analysis/itc_cfg.hh"
#include "analysis/path_index.hh"
#include "fuzz/fuzzer.hh"
#include "isa/program.hh"

namespace flowguard::fuzz {

struct TrainingStats
{
    size_t inputsReplayed = 0;
    size_t transitionsSeen = 0;
    size_t edgesLabeled = 0;        ///< newly given trained credit
    size_t unknownTransitions = 0;  ///< TIP pairs not in the ITC-CFG
    /** Inputs whose trace outgrew the ring: labeled from the oldest
     *  PSB left, so their first transitions went unseen. */
    size_t inputsTruncated = 0;
};

/**
 * Replays `corpus` through `target` (which must attach the given sink
 * to a traced execution) and labels `itc`.
 */
TrainingStats trainItcCfg(analysis::ItcCfg &itc, const RunTarget &target,
                          const std::vector<Input> &corpus,
                          analysis::PathIndex *paths = nullptr);

} // namespace flowguard::fuzz

#endif // FLOWGUARD_FUZZ_TRAINER_HH

/**
 * @file
 * Training-phase edge labeling (§4.3 step 3).
 *
 * Replays a fuzzing corpus on "real hardware" — the interpreter with
 * the IPT encoder attached — into one ring, cleared between inputs.
 * Each input's trace is decoded in place at the packet layer and
 * folded into transition views, as a runtime commit reads them; every
 * ITC-CFG edge observed gets trained high credit plus the TNT
 * sequence seen along it. Training writes the trained layer only,
 * whatever runtime credit the graph already holds.
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

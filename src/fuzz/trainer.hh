/**
 * @file
 * Training-phase edge labeling (§4.3 step 3).
 *
 * Replays a fuzzing corpus on "real hardware" — the interpreter with
 * the IPT encoder attached — decodes the resulting packet streams at
 * the packet layer, and labels every ITC-CFG edge observed during
 * training with a high credit plus the TNT sequence seen along it.
 */

#ifndef FLOWGUARD_FUZZ_TRAINER_HH
#define FLOWGUARD_FUZZ_TRAINER_HH

#include <cstdint>
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
    size_t edgesLabeled = 0;        ///< newly raised to high credit
    size_t unknownTransitions = 0;  ///< TIP pairs not in the ITC-CFG
};

/**
 * Replays `corpus` through `target` (which must attach the given sink
 * to a traced execution) and labels `itc`.
 */
TrainingStats trainItcCfg(analysis::ItcCfg &itc, const RunTarget &target,
                          const std::vector<Input> &corpus,
                          analysis::PathIndex *paths = nullptr);

/**
 * Labels the ITC-CFG from one already-captured packet buffer (used by
 * the runtime to cache slow-path verdicts back into the fast path).
 */
TrainingStats labelFromPackets(analysis::ItcCfg &itc,
                               const std::vector<uint8_t> &packets,
                               analysis::PathIndex *paths = nullptr);

} // namespace flowguard::fuzz

#endif // FLOWGUARD_FUZZ_TRAINER_HH

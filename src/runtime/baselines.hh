/**
 * @file
 * LBR-heuristic baseline defense (kBouncer [18] style), used by the
 * security comparison experiments.
 *
 * At an endpoint, every return recorded in the LBR must target a
 * call-preceded address. That is exactly the check the
 * history-flushing attack of Carlini & Wagner [35] evades, because
 * the LBR only holds the most recent 16 branches.
 */

#ifndef FLOWGUARD_RUNTIME_BASELINES_HH
#define FLOWGUARD_RUNTIME_BASELINES_HH

#include <vector>

#include "isa/program.hh"
#include "trace/lbr.hh"

namespace flowguard::runtime {

/** True if `target` directly follows a call instruction. */
bool isCallPreceded(const isa::Program &program, uint64_t target);

/**
 * kBouncer-style check over an LBR snapshot.
 * @retval true  the snapshot looks benign (attack missed or absent)
 * @retval false a return to a non-call-preceded address was seen
 */
bool kbouncerCheck(const isa::Program &program,
                   const std::vector<trace::LbrEntry> &snapshot);

} // namespace flowguard::runtime

#endif // FLOWGUARD_RUNTIME_BASELINES_HH

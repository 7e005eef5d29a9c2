/**
 * @file
 * Conservative O-CFG construction from a linked Program (§4.1).
 *
 * Follows the paper's recipe: per-module disassembly into basic
 * blocks, direct edges from block terminators, inter-module edges
 * through PLT stubs and the VDSO, indirect-call target sets from the
 * TypeArmor analysis intersected with the address-taken universe,
 * jump-table targets from rodata (standing in for Dyninst's pattern
 * matching), call/return matching for backward edges, and tail-call
 * handling per Ge et al. [22]: returns of a tail-called function also
 * flow to the return sites of every transitive tail-call predecessor.
 */

#ifndef FLOWGUARD_ANALYSIS_CFG_BUILDER_HH
#define FLOWGUARD_ANALYSIS_CFG_BUILDER_HH

#include "analysis/cfg.hh"
#include "analysis/typearmor.hh"

namespace flowguard::analysis {

/**
 * Builds the O-CFG. `typearmor` may be null, in which case the
 * analysis is run internally.
 */
Cfg buildCfg(const isa::Program &program,
             const TypeArmorInfo *typearmor = nullptr);

} // namespace flowguard::analysis

#endif // FLOWGUARD_ANALYSIS_CFG_BUILDER_HH

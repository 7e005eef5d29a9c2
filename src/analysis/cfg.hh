/**
 * @file
 * The conservative whole-program control flow graph (the paper's
 * O-CFG): basic blocks connected by direct and indirect edges across
 * executable and libraries, built without source code.
 */

#ifndef FLOWGUARD_ANALYSIS_CFG_HH
#define FLOWGUARD_ANALYSIS_CFG_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace flowguard::analysis {

/** A maximal single-entry straight-line run of instructions. */
struct BasicBlock
{
    uint64_t start = 0;         ///< entry address
    uint64_t end = 0;           ///< exclusive
    uint32_t firstInst = 0;     ///< flat Program instruction index
    uint32_t numInsts = 0;
    uint32_t funcIndex = 0;     ///< Program::functions() index
    uint32_t moduleIndex = 0;
};

/**
 * Edge classes. Direct kinds are statically determined transfers that
 * produce no TIP packet; indirect kinds are the TIP producers. This
 * split is exactly what the ITC-CFG reconstruction keys on.
 */
enum class EdgeKind : uint8_t {
    Fallthrough,    ///< non-branch block boundary / post-syscall
    CondTaken,
    CondFall,
    DirectJump,
    DirectCall,
    IndirectJump,   ///< TIP
    IndirectCall,   ///< TIP
    Return,         ///< TIP
};

/** True for the TIP-producing edge kinds. */
bool edgeIsIndirect(EdgeKind kind);

/** One CFG edge between block indices. */
struct Edge
{
    uint32_t from = 0;
    uint32_t to = 0;
    EdgeKind kind = EdgeKind::Fallthrough;
};

/** The O-CFG. */
class Cfg
{
  public:
    Cfg(const isa::Program &program, std::vector<BasicBlock> blocks,
        std::vector<Edge> edges);

    const isa::Program &program() const { return _program; }
    const std::vector<BasicBlock> &blocks() const { return _blocks; }
    const std::vector<Edge> &edges() const { return _edges; }

    /** Out-edges of block `index` (indices into edges()). */
    const std::vector<uint32_t> &outEdges(uint32_t index) const
    {
        return _out[index];
    }

    /** In-edges of block `index`. */
    const std::vector<uint32_t> &inEdges(uint32_t index) const
    {
        return _in[index];
    }

    /**
     * Block whose entry is exactly `addr`, if any. Both lookups read
     * a dense per-instruction block index when `addr` starts an
     * instruction, and search the sorted blocks otherwise.
     */
    std::optional<uint32_t> blockAt(uint64_t addr) const;

    /** Block containing `addr`, if any. */
    std::optional<uint32_t> blockContaining(uint64_t addr) const;

  private:
    const isa::Program &_program;
    std::vector<BasicBlock> _blocks;       ///< sorted by start
    std::vector<Edge> _edges;
    std::vector<std::vector<uint32_t>> _out;
    std::vector<std::vector<uint32_t>> _in;
    /** Per flat instruction index, the block holding it (the latest
     *  starting one), or UINT32_MAX. */
    std::vector<uint32_t> _blockOfInst;
};

} // namespace flowguard::analysis

#endif // FLOWGUARD_ANALYSIS_CFG_HH

#include "analysis/cfg.hh"

#include <algorithm>

#include "support/logging.hh"

namespace flowguard::analysis {

namespace {

constexpr uint32_t no_block = UINT32_MAX;

} // namespace

bool
edgeIsIndirect(EdgeKind kind)
{
    return kind == EdgeKind::IndirectJump ||
           kind == EdgeKind::IndirectCall || kind == EdgeKind::Return;
}

Cfg::Cfg(const isa::Program &program, std::vector<BasicBlock> blocks,
         std::vector<Edge> edges)
    : _program(program), _blocks(std::move(blocks)),
      _edges(std::move(edges))
{
    fg_assert(std::is_sorted(_blocks.begin(), _blocks.end(),
                             [](const BasicBlock &a, const BasicBlock &b)
                             { return a.start < b.start; }),
              "CFG blocks must be sorted by entry address");
    _out.resize(_blocks.size());
    _in.resize(_blocks.size());
    for (uint32_t i = 0; i < _edges.size(); ++i) {
        _out[_edges[i].from].push_back(i);
        _in[_edges[i].to].push_back(i);
    }
    _blockOfInst.assign(_program.numInsts(), no_block);
    for (uint32_t b = 0; b < _blocks.size(); ++b) {
        const BasicBlock &block = _blocks[b];
        for (uint32_t i = 0; i < block.numInsts; ++i)
            _blockOfInst[block.firstInst + i] = b;
    }
}

std::optional<uint32_t>
Cfg::blockAt(uint64_t addr) const
{
    // The dense answer stands when it is the first block entered at
    // `addr`, as the search below would find.
    const uint32_t inst = _program.instIndexAt(addr);
    if (inst != isa::no_inst) {
        const uint32_t b = _blockOfInst[inst];
        if (b != no_block && _blocks[b].start == addr &&
            (b == 0 || _blocks[b - 1].start != addr))
            return b;
    }
    auto it = std::lower_bound(
        _blocks.begin(), _blocks.end(), addr,
        [](const BasicBlock &b, uint64_t a) { return b.start < a; });
    if (it == _blocks.end() || it->start != addr)
        return std::nullopt;
    return static_cast<uint32_t>(it - _blocks.begin());
}

std::optional<uint32_t>
Cfg::blockContaining(uint64_t addr) const
{
    // The dense answer stands when no later block starts at or below
    // `addr`: it is then the block the search below would find.
    const uint32_t inst = _program.instIndexAt(addr);
    if (inst != isa::no_inst) {
        const uint32_t b = _blockOfInst[inst];
        if (b != no_block && addr >= _blocks[b].start &&
            addr < _blocks[b].end &&
            (b + 1 == _blocks.size() || _blocks[b + 1].start > addr))
            return b;
    }
    auto it = std::upper_bound(
        _blocks.begin(), _blocks.end(), addr,
        [](uint64_t a, const BasicBlock &b) { return a < b.start; });
    if (it == _blocks.begin())
        return std::nullopt;
    --it;
    if (addr >= it->start && addr < it->end)
        return static_cast<uint32_t>(it - _blocks.begin());
    return std::nullopt;
}

} // namespace flowguard::analysis

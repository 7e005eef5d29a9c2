#include "analysis/itc_cfg.hh"

#include <algorithm>

#include "support/logging.hh"

namespace flowguard::analysis {

namespace {

/** Minimal fixed-width bitset used for the reachability sets. */
class BitSet
{
  public:
    explicit BitSet(size_t bits)
        : _words((bits + 63) / 64, 0)
    {}

    void set(size_t bit) { _words[bit / 64] |= 1ULL << (bit % 64); }

    void orWith(const BitSet &other)
    {
        for (size_t i = 0; i < _words.size(); ++i)
            _words[i] |= other._words[i];
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t w = 0; w < _words.size(); ++w) {
            uint64_t word = _words[w];
            while (word) {
                const int bit = __builtin_ctzll(word);
                fn(w * 64 + static_cast<size_t>(bit));
                word &= word - 1;
            }
        }
    }

  private:
    std::vector<uint64_t> _words;
};

/** Iterative Tarjan SCC over the direct-edge subgraph. */
struct SccResult
{
    std::vector<uint32_t> component;    ///< block -> SCC id
    uint32_t count = 0;
};

SccResult
condenseDirect(const Cfg &cfg)
{
    const size_t n = cfg.blocks().size();
    SccResult result;
    result.component.assign(n, UINT32_MAX);

    std::vector<uint32_t> index(n, UINT32_MAX), lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<uint32_t> stack;
    uint32_t next_index = 0;

    struct Frame
    {
        uint32_t node;
        size_t edge_pos;
    };

    for (uint32_t root = 0; root < n; ++root) {
        if (index[root] != UINT32_MAX)
            continue;
        std::vector<Frame> frames{{root, 0}};
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = true;

        while (!frames.empty()) {
            Frame &frame = frames.back();
            const uint32_t v = frame.node;
            const auto &out = cfg.outEdges(v);
            bool descended = false;
            while (frame.edge_pos < out.size()) {
                const Edge &edge = cfg.edges()[out[frame.edge_pos]];
                ++frame.edge_pos;
                if (edgeIsIndirect(edge.kind))
                    continue;
                const uint32_t w = edge.to;
                if (index[w] == UINT32_MAX) {
                    index[w] = lowlink[w] = next_index++;
                    stack.push_back(w);
                    on_stack[w] = true;
                    frames.push_back({w, 0});
                    descended = true;
                    break;
                }
                if (on_stack[w])
                    lowlink[v] = std::min(lowlink[v], index[w]);
            }
            if (descended)
                continue;
            if (lowlink[v] == index[v]) {
                // v roots an SCC.
                for (;;) {
                    const uint32_t w = stack.back();
                    stack.pop_back();
                    on_stack[w] = false;
                    result.component[w] = result.count;
                    if (w == v)
                        break;
                }
                ++result.count;
            }
            frames.pop_back();
            if (!frames.empty()) {
                Frame &parent = frames.back();
                lowlink[parent.node] =
                    std::min(lowlink[parent.node], lowlink[v]);
            }
        }
    }
    return result;
}

} // namespace

ItcCfg
ItcCfg::build(const Cfg &cfg)
{
    const auto &blocks = cfg.blocks();
    const auto &edges = cfg.edges();
    const size_t n = blocks.size();

    // --- identify IT-BBs ---------------------------------------------------
    std::vector<int32_t> it_index(n, -1);
    std::vector<uint32_t> it_blocks;
    for (const Edge &edge : edges) {
        if (edgeIsIndirect(edge.kind) && it_index[edge.to] < 0) {
            it_index[edge.to] = 0;      // mark; renumber below
            it_blocks.push_back(edge.to);
        }
    }
    // Nodes sorted by entry address (blocks are address-sorted).
    std::sort(it_blocks.begin(), it_blocks.end());
    for (uint32_t i = 0; i < it_blocks.size(); ++i)
        it_index[it_blocks[i]] = static_cast<int32_t>(i);
    const size_t num_it = it_blocks.size();

    // --- first-indirect-successor sets over the direct condensation ------
    // F(b) = { it(v) : b -(indirect)-> v }
    //      | union of F(u) for b -(direct)-> u.
    // Computed per SCC of the direct subgraph, in reverse topological
    // order of the condensation.
    SccResult scc = condenseDirect(cfg);

    // Tarjan emits SCCs in reverse topological order: an SCC gets its
    // id only after every SCC it can reach (via direct edges) already
    // has one. So processing components by ascending id sees all
    // direct successors first.
    std::vector<std::vector<uint32_t>> scc_members(scc.count);
    for (uint32_t b = 0; b < n; ++b)
        scc_members[scc.component[b]].push_back(b);

    std::vector<BitSet> f_sets;
    f_sets.reserve(scc.count);
    for (uint32_t c = 0; c < scc.count; ++c) {
        BitSet f(num_it);
        for (uint32_t b : scc_members[c]) {
            for (uint32_t e : cfg.outEdges(b)) {
                const Edge &edge = edges[e];
                if (edgeIsIndirect(edge.kind)) {
                    f.set(static_cast<size_t>(it_index[edge.to]));
                } else {
                    const uint32_t target_scc =
                        scc.component[edge.to];
                    if (target_scc != c) {
                        fg_assert(target_scc < c,
                                  "direct successor SCC not yet "
                                  "processed");
                        f.orWith(f_sets[target_scc]);
                    }
                }
            }
        }
        f_sets.push_back(std::move(f));
    }

    // --- assemble CSR ------------------------------------------------------
    ItcCfg itc;
    itc._nodeAddrs.reserve(num_it);
    for (uint32_t b : it_blocks)
        itc._nodeAddrs.push_back(blocks[b].start);

    itc._offsets.assign(num_it + 1, 0);
    std::vector<std::vector<uint32_t>> out_ids(num_it);
    for (size_t i = 0; i < num_it; ++i) {
        const uint32_t b = it_blocks[i];
        f_sets[scc.component[b]].forEach([&](size_t target) {
            out_ids[i].push_back(static_cast<uint32_t>(target));
        });
        // forEach yields ascending ids; ids are address-ordered, so
        // target arrays come out address-sorted for binary search.
    }
    for (size_t i = 0; i < num_it; ++i)
        itc._offsets[i + 1] = itc._offsets[i] +
            static_cast<uint32_t>(out_ids[i].size());
    itc._targets.reserve(itc._offsets[num_it]);
    for (size_t i = 0; i < num_it; ++i)
        for (uint32_t id : out_ids[i])
            itc._targets.push_back(itc._nodeAddrs[id]);

    itc._credits.assign(itc._targets.size(), 0);
    itc._tntVaried.assign(itc._targets.size(), 0);
    itc._tntSeqs.resize(itc._targets.size());
    return itc;
}

int
ItcCfg::findNode(uint64_t addr) const
{
    auto it = std::lower_bound(_nodeAddrs.begin(), _nodeAddrs.end(),
                               addr);
    if (it == _nodeAddrs.end() || *it != addr)
        return -1;
    return static_cast<int>(it - _nodeAddrs.begin());
}

int64_t
ItcCfg::findEdge(uint64_t from, uint64_t to) const
{
    const int node = findNode(from);
    if (node < 0)
        return -1;
    const uint64_t *begin = targetsBegin(static_cast<size_t>(node));
    const uint64_t *end = targetsEnd(static_cast<size_t>(node));
    const uint64_t *it = std::lower_bound(begin, end, to);
    if (it == end || *it != to)
        return -1;
    return static_cast<int64_t>(it - _targets.data());
}

void
ItcCfg::setRuntimeCredit(int64_t edge)
{
    if (_runtimeCredit.size() != _targets.size())
        _runtimeCredit.resize(_targets.size(), 0);
    _runtimeCredit[static_cast<size_t>(edge)] = 1;
}

size_t
ItcCfg::edgeFromNode(size_t edge) const
{
    if (!_edgeFrom.empty())
        return _edgeFrom[edge];
    // No liveness index yet: binary search the CSR offsets.
    auto it = std::upper_bound(_offsets.begin(), _offsets.end(),
                               static_cast<uint32_t>(edge));
    return static_cast<size_t>(it - _offsets.begin()) - 1;
}

size_t
ItcCfg::revokeRuntimeCreditsInRange(uint64_t begin, uint64_t end)
{
    size_t dropped = 0;
    for (size_t e = 0; e < _runtimeCredit.size(); ++e) {
        if (!_runtimeCredit[e])
            continue;
        const uint64_t from = _nodeAddrs[edgeFromNode(e)];
        const uint64_t to = _targets[e];
        const bool touches = (from >= begin && from < end) ||
                             (to >= begin && to < end);
        if (touches) {
            _runtimeCredit[e] = 0;
            ++dropped;
        }
    }
    return dropped;
}

size_t
ItcCfg::clearRuntimeCredits()
{
    size_t dropped = 0;
    for (auto &credit : _runtimeCredit) {
        dropped += credit != 0;
        credit = 0;
    }
    return dropped;
}

size_t
ItcCfg::runtimeCreditCount() const
{
    size_t count = 0;
    for (const auto &credit : _runtimeCredit)
        count += credit != 0;
    return count;
}

void
ItcCfg::enableLiveness()
{
    _livenessEnabled = true;
    _liveNode.assign(numNodes(), 1);
    if (_runtimeCredit.size() != _targets.size())
        _runtimeCredit.resize(_targets.size(), 0);
    buildLivenessIndex();
}

void
ItcCfg::buildLivenessIndex()
{
    const size_t n = numNodes();
    const size_t m = _targets.size();
    _edgeFrom.assign(m, 0);
    _targetNode.assign(m, 0);
    for (size_t i = 0; i < n; ++i)
        for (uint32_t e = _offsets[i]; e < _offsets[i + 1]; ++e)
            _edgeFrom[e] = static_cast<uint32_t>(i);
    std::vector<uint32_t> in_degree(n, 0);
    for (size_t e = 0; e < m; ++e) {
        const int node = findNode(_targets[e]);
        fg_assert(node >= 0, "ITC edge target is not a node");
        _targetNode[e] = static_cast<uint32_t>(node);
        ++in_degree[static_cast<size_t>(node)];
    }
    _inOffsets.assign(n + 1, 0);
    for (size_t i = 0; i < n; ++i)
        _inOffsets[i + 1] = _inOffsets[i] + in_degree[i];
    _inEdgeIds.assign(m, 0);
    std::vector<uint32_t> cursor(_inOffsets.begin(),
                                 _inOffsets.end() - 1);
    for (size_t e = 0; e < m; ++e)
        _inEdgeIds[cursor[_targetNode[e]]++] =
            static_cast<uint32_t>(e);
}

ItcCfg::RangeUpdate
ItcCfg::setRangeLive(uint64_t begin, uint64_t end, bool live)
{
    fg_assert(_livenessEnabled, "call enableLiveness() first");
    RangeUpdate update;
    const size_t lo = static_cast<size_t>(
        std::lower_bound(_nodeAddrs.begin(), _nodeAddrs.end(), begin) -
        _nodeAddrs.begin());
    const size_t hi = static_cast<size_t>(
        std::lower_bound(_nodeAddrs.begin(), _nodeAddrs.end(), end) -
        _nodeAddrs.begin());
    for (size_t i = lo; i < hi; ++i) {
        _liveNode[i] = live ? 1 : 0;
        ++update.nodes;
        update.outEdges += outDegree(i);
        // Cross-range in-edges are the PLT-style stitched edges: they
        // come back (or go away) with the module without touching the
        // rest of the graph.
        for (uint32_t k = _inOffsets[i]; k < _inOffsets[i + 1]; ++k) {
            const uint32_t from = _edgeFrom[_inEdgeIds[k]];
            if (from < lo || from >= hi)
                ++update.inEdges;
        }
    }
    return update;
}

ItcCfg::RangeUpdate
ItcCfg::activateRange(uint64_t begin, uint64_t end)
{
    return setRangeLive(begin, end, true);
}

ItcCfg::RangeUpdate
ItcCfg::deactivateRange(uint64_t begin, uint64_t end)
{
    return setRangeLive(begin, end, false);
}

bool
ItcCfg::edgeLive(int64_t edge) const
{
    if (!_livenessEnabled)
        return true;
    const auto e = static_cast<size_t>(edge);
    return _liveNode[_edgeFrom[e]] != 0 &&
           _liveNode[_targetNode[e]] != 0;
}

void
ItcCfg::applyRebase(uint64_t begin, uint64_t end, int64_t delta)
{
    const size_t n = numNodes();
    const size_t m = _targets.size();
    auto shift = [&](uint64_t addr) {
        return addr >= begin && addr < end
            ? addr + static_cast<uint64_t>(delta)
            : addr;
    };

    std::vector<uint64_t> new_addr(n);
    for (size_t i = 0; i < n; ++i)
        new_addr[i] = shift(_nodeAddrs[i]);
    std::vector<uint32_t> order(n);     // new position -> old node
    for (size_t i = 0; i < n; ++i)
        order[i] = static_cast<uint32_t>(i);
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) {
                  return new_addr[a] < new_addr[b];
              });

    std::vector<uint64_t> addrs(n);
    std::vector<uint32_t> offsets(n + 1, 0);
    std::vector<uint64_t> targets;
    targets.reserve(m);
    std::vector<uint32_t> edge_src;     // new edge id -> old edge id
    edge_src.reserve(m);
    std::vector<std::pair<uint64_t, uint32_t>> row;
    for (size_t ni = 0; ni < n; ++ni) {
        const uint32_t oi = order[ni];
        addrs[ni] = new_addr[oi];
        fg_assert(ni == 0 || addrs[ni - 1] < addrs[ni],
                  "rebase collides node addresses");
        row.clear();
        for (uint32_t e = _offsets[oi]; e < _offsets[oi + 1]; ++e)
            row.emplace_back(shift(_targets[e]), e);
        std::sort(row.begin(), row.end());
        offsets[ni + 1] =
            offsets[ni] + static_cast<uint32_t>(row.size());
        for (const auto &[addr, old_e] : row) {
            targets.push_back(addr);
            edge_src.push_back(old_e);
        }
    }

    auto permuteEdges = [&](auto &vec) {
        using Vec = std::decay_t<decltype(vec)>;
        if (vec.empty())
            return;
        Vec out(m);
        for (size_t e = 0; e < m; ++e)
            out[e] = std::move(vec[edge_src[e]]);
        vec = std::move(out);
    };
    permuteEdges(_credits);
    permuteEdges(_tntVaried);
    permuteEdges(_tntSeqs);
    permuteEdges(_runtimeCredit);

    _nodeAddrs = std::move(addrs);
    _offsets = std::move(offsets);
    _targets = std::move(targets);

    if (_livenessEnabled) {
        std::vector<uint8_t> live(n);
        for (size_t ni = 0; ni < n; ++ni)
            live[ni] = _liveNode[order[ni]];
        _liveNode = std::move(live);
        buildLivenessIndex();
    }
}

void
ItcCfg::addTntSequence(int64_t edge, const TntSequence &seq)
{
    auto &seqs = _tntSeqs[static_cast<size_t>(edge)];
    if (_tntVaried[static_cast<size_t>(edge)])
        return;
    if (std::find(seqs.begin(), seqs.end(), seq) != seqs.end())
        return;
    if (seqs.size() >= max_tnt_variants) {
        _tntVaried[static_cast<size_t>(edge)] = 1;
        seqs.clear();
        seqs.shrink_to_fit();
        return;
    }
    seqs.push_back(seq);
}

bool
ItcCfg::hasTntInfo(int64_t edge) const
{
    return !_tntVaried[static_cast<size_t>(edge)] &&
           !_tntSeqs[static_cast<size_t>(edge)].empty();
}

bool
ItcCfg::tntCompatible(int64_t edge,
                      std::span<const uint8_t> observed) const
{
    if (!hasTntInfo(edge))
        return true;
    for (const auto &seq : _tntSeqs[static_cast<size_t>(edge)])
        if (std::ranges::equal(seq, observed))
            return true;
    return false;
}

double
ItcCfg::highCreditRatio() const
{
    if (_credits.empty())
        return 0.0;
    return static_cast<double>(highCreditCount()) /
           static_cast<double>(_credits.size());
}

size_t
ItcCfg::highCreditCount() const
{
    size_t count = 0;
    for (size_t e = 0; e < _credits.size(); ++e)
        count += highCredit(static_cast<int64_t>(e)) ? 1 : 0;
    return count;
}

size_t
ItcCfg::memoryBytes() const
{
    size_t bytes = _nodeAddrs.size() * sizeof(uint64_t) +
                   _offsets.size() * sizeof(uint32_t) +
                   _targets.size() * sizeof(uint64_t) +
                   _credits.size() + _tntVaried.size();
    for (const auto &seqs : _tntSeqs) {
        bytes += sizeof(seqs);
        for (const auto &seq : seqs)
            bytes += sizeof(seq) + seq.capacity();
    }
    return bytes;
}

} // namespace flowguard::analysis

/**
 * @file
 * The indirect-targets-connected CFG (ITC-CFG, §4.2) — the paper's
 * central data structure.
 *
 * Nodes are the entry addresses of basic blocks targeted by at least
 * one indirect edge (IT-BBs). There is an edge x -> y iff, in the
 * O-CFG, some path leaves x through direct edges only and then takes
 * exactly one indirect edge landing at y. By construction the TIP
 * packet stream IPT emits is a walk over this graph: any two
 * consecutive TIPs must be connected, or an anomaly happened — the
 * correctness argument of §4.2.
 *
 * The edge array layout is the runtime search structure of §5.3: a
 * sorted node array, per-node sorted target arrays for binary search,
 * and per-edge credit + TNT annotations filled in by training.
 */

#ifndef FLOWGUARD_ANALYSIS_ITC_CFG_HH
#define FLOWGUARD_ANALYSIS_ITC_CFG_HH

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/cfg.hh"

namespace flowguard::analysis {

/** A recorded conditional-outcome sequence for one ITC edge. */
using TntSequence = std::vector<uint8_t>;

class ItcCfg
{
  public:
    /** Reconstructs the ITC-CFG from an O-CFG. */
    static ItcCfg build(const Cfg &cfg);

    size_t numNodes() const { return _nodeAddrs.size(); }
    size_t numEdges() const { return _targets.size(); }

    /** Node index whose address is exactly `addr`, or -1. */
    int findNode(uint64_t addr) const;

    uint64_t nodeAddr(size_t node) const { return _nodeAddrs[node]; }

    /** Target addresses of `node` (sorted). */
    const uint64_t *targetsBegin(size_t node) const
    {
        return _targets.data() + _offsets[node];
    }
    const uint64_t *targetsEnd(size_t node) const
    {
        return _targets.data() + _offsets[node + 1];
    }
    size_t outDegree(size_t node) const
    {
        return _offsets[node + 1] - _offsets[node];
    }

    /**
     * Edge index for (from-node address, to address), or -1 when the
     * edge is not in the graph. Binary search on both levels, the
     * §5.3 fast-path lookup.
     */
    int64_t findEdge(uint64_t from, uint64_t to) const;

    // --- training annotations ---------------------------------------------
    /** Trained OR runtime (verdict-cache) credit. */
    bool highCredit(int64_t edge) const
    {
        const auto e = static_cast<size_t>(edge);
        return _credits[e] != 0 ||
               (!_runtimeCredit.empty() && _runtimeCredit[e] != 0);
    }
    void setHighCredit(int64_t edge)
    {
        _credits[static_cast<size_t>(edge)] = 1;
    }

    // --- runtime (verdict-cache) credit -------------------------------------
    /**
     * Credit earned online by a committed slow-path verdict. Kept in
     * a separate bitmap from trained credit so unload/rebase can
     * revoke it for an address range without losing training data —
     * trained credits ride a retracted module and revive on reload.
     */
    void setRuntimeCredit(int64_t edge);
    bool runtimeCredit(int64_t edge) const
    {
        const auto e = static_cast<size_t>(edge);
        return e < _runtimeCredit.size() && _runtimeCredit[e] != 0;
    }
    /** Drops runtime credit on edges with an endpoint in [begin,end);
     *  returns how many credits were revoked. */
    size_t revokeRuntimeCreditsInRange(uint64_t begin, uint64_t end);

    /**
     * Drops ALL runtime credit; returns how many edges lost it.
     * This is what a checker crash does to the online-learned state:
     * the bitmap lived in the dead process, and a warm restart must
     * rebuild it from the journal (or accept the cold-start cost).
     */
    size_t clearRuntimeCredits();

    /** Edges currently carrying runtime (verdict-cache) credit. */
    size_t runtimeCreditCount() const;

    // --- liveness (dynamic code) --------------------------------------------
    /** Cost accounting for one incremental range operation. */
    struct RangeUpdate
    {
        size_t nodes = 0;       ///< nodes inside the range
        size_t outEdges = 0;    ///< edges leaving those nodes
        size_t inEdges = 0;     ///< cross-range (stitched) in-edges
        size_t
        touched() const
        {
            return nodes + outEdges + inEdges;
        }
    };

    /**
     * Switches on per-node liveness (module load/unload tracking):
     * builds the edge->endpoint maps plus the in-edge transpose the
     * range operations walk, and (re)marks every node live. Runtime
     * credit is preserved across calls — it is revoked by explicit
     * range events, not by re-attaching a guard.
     */
    void enableLiveness();
    bool livenessEnabled() const { return _livenessEnabled; }

    /** Merges the sub-graph for [begin,end) back in (module load). */
    RangeUpdate activateRange(uint64_t begin, uint64_t end);
    /** Retracts the sub-graph for [begin,end) (module unload). */
    RangeUpdate deactivateRange(uint64_t begin, uint64_t end);

    bool nodeLive(size_t node) const
    {
        return !_livenessEnabled || _liveNode[node] != 0;
    }
    /** False iff liveness is on and either endpoint is retracted. */
    bool edgeLive(int64_t edge) const;

    /**
     * Moves node addresses in [begin,end) by `delta` (Rebase event),
     * re-sorting the CSR and permuting every per-edge and per-node
     * annotation. O(E log E) — far below whole-program re-analysis.
     */
    void applyRebase(uint64_t begin, uint64_t end, int64_t delta);

    /**
     * Records a TNT sequence observed for `edge` during training.
     * Sequences are deduplicated; past `max_tnt_variants` distinct
     * sequences the edge is marked TNT-varied and matching is
     * disabled (data-dependent conditional counts make the exact set
     * unboundable).
     */
    void addTntSequence(int64_t edge, const TntSequence &seq);

    /**
     * True if `observed` is compatible with the edge's TNT training
     * data: vacuously true when nothing was recorded or the edge is
     * TNT-varied, else exact-set membership.
     */
    bool tntCompatible(int64_t edge,
                       std::span<const uint8_t> observed) const;

    /** True if any TNT info is recorded and active for the edge. */
    bool hasTntInfo(int64_t edge) const;

    /** Recorded sequences for an edge (empty when varied). */
    const std::vector<TntSequence> &
    tntSequences(int64_t edge) const
    {
        return _tntSeqs[static_cast<size_t>(edge)];
    }

    /** True if the edge saturated its TNT variant budget. */
    bool
    tntVaried(int64_t edge) const
    {
        return _tntVaried[static_cast<size_t>(edge)] != 0;
    }

    /** Marks an edge TNT-varied (profile deserialization). */
    void
    markTntVaried(int64_t edge)
    {
        _tntVaried[static_cast<size_t>(edge)] = 1;
        _tntSeqs[static_cast<size_t>(edge)].clear();
    }

    /** Fraction of edges labeled high-credit. */
    double highCreditRatio() const;

    /** Count of high-credit edges. */
    size_t highCreditCount() const;

    /** Approximate resident size, for the Table 5 reproduction. */
    size_t memoryBytes() const;

    /** Distinct TNT sequences kept per edge before giving up. */
    static constexpr size_t max_tnt_variants = 8;

  private:
    RangeUpdate setRangeLive(uint64_t begin, uint64_t end, bool live);
    void buildLivenessIndex();
    size_t edgeFromNode(size_t edge) const;

    std::vector<uint64_t> _nodeAddrs;     ///< sorted
    std::vector<uint32_t> _offsets;       ///< CSR, size numNodes()+1
    std::vector<uint64_t> _targets;       ///< sorted per node
    std::vector<uint8_t> _credits;        ///< per edge, 0 = low
    std::vector<uint8_t> _tntVaried;      ///< per edge
    std::vector<std::vector<TntSequence>> _tntSeqs;  ///< per edge

    // Dynamic-code state (empty until used).
    std::vector<uint8_t> _runtimeCredit;  ///< per edge, lazily sized
    bool _livenessEnabled = false;
    std::vector<uint8_t> _liveNode;       ///< per node
    std::vector<uint32_t> _edgeFrom;      ///< per edge: source node
    std::vector<uint32_t> _targetNode;    ///< per edge: target node
    std::vector<uint32_t> _inOffsets;     ///< transpose CSR
    std::vector<uint32_t> _inEdgeIds;     ///< transpose CSR payload
};

} // namespace flowguard::analysis

#endif // FLOWGUARD_ANALYSIS_ITC_CFG_HH

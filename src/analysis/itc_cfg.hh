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

    /**
     * findEdge() through a direct-mapped cache of recent lookups, for
     * verdict-cache commits: they ask about the same few hundred
     * edges commit after commit, and a binary search over a graph
     * that left the CPU cache costs several memory round trips.
     */
    int64_t findEdgeCached(uint64_t from, uint64_t to);

    /**
     * What the graph holds, as a stamp: every mutation takes a fresh
     * value from a process-wide counter, so equal versions mean equal
     * graphs. A copy keeps its source's version; a move passes it on
     * and re-stamps the moved-from graph. findEdgeCached() leaves it
     * alone, and so does a call that finds the graph as it would leave
     * it (a learn() or addTntSequence() of a pair the graph holds, a
     * setHighCredit() of a credited edge). What the fast path keeps
     * about a transition holds while the version does.
     */
    uint64_t version() const { return _version.value(); }

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
        uint8_t &credit = _credits[static_cast<size_t>(edge)];
        if (credit == 0)
            _version.bump();
        credit = 1;
    }

    // --- runtime overlay (verdict cache) -----------------------------------
    /*
     * What committed slow-path verdicts taught the graph (§7.1.1),
     * kept apart from training so an unload or rebase can revoke
     * credit for an address range and a checker crash can drop all of
     * it, leaving trained state alone. The overlay is a runtime credit
     * bitmap plus the TNT sequences each edge learned at runtime. Those
     * sit after the edge's trained ones in the one list tntCompatible()
     * reads, so the fast path looks nothing up twice. The runtime
     * n-grams are the PathIndex's half of the overlay.
     */

    /**
     * Learns one committed (edge, TNT) pair: sets the edge's runtime
     * credit and records `tnt` under the max_tnt_variants budget of
     * trained and runtime sequences together. Returns true when the
     * pair was new: the credit bit was unset, or the edge is not
     * TNT-varied and did not hold `tnt`. Only new pairs change the
     * graph, so they are what a commit journals.
     */
    bool learn(int64_t edge, std::span<const uint8_t> tnt);

    bool runtimeCredit(int64_t edge) const
    {
        const auto e = static_cast<size_t>(edge);
        return e < _runtimeCredit.size() && _runtimeCredit[e] != 0;
    }
    /** Drops runtime credit on edges with an endpoint in [begin,end);
     *  returns how many credits were revoked. Runtime TNT stays with
     *  its edge. */
    size_t revokeRuntimeCreditsInRange(uint64_t begin, uint64_t end);

    /**
     * Drops the whole overlay: runtime credit, runtime TNT sequences
     * and TNT-varied marks set at runtime, so only trained state is
     * left. Returns how many edges lost runtime credit. This is what
     * a checker crash does: the overlay lived in the dead process,
     * and a warm restart rebuilds it from the journal.
     */
    size_t clearRuntime();

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
     * unboundable). A sequence the edge learned at runtime becomes a
     * trained one.
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

    /** Recorded sequences for an edge: trained first, then learned
     *  at runtime. Meaningless when the edge is varied. */
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

    /** Marks an edge TNT-varied in training (profile
     *  deserialization). */
    void
    markTntVaried(int64_t edge)
    {
        _tntVaried[static_cast<size_t>(edge)] = 1;
        _tntTrained[static_cast<size_t>(edge)] = trained_varied;
        _tntSeqs[static_cast<size_t>(edge)].clear();
        _version.bump();
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
    /** _tntTrained value of an edge that saturated in training. */
    static constexpr uint8_t trained_varied = 0xFF;

    /** One findEdgeCached() entry. */
    struct EdgeCacheSlot
    {
        uint64_t from = 0;
        uint64_t to = 0;
        int64_t edge = -1;
    };
    static constexpr int edge_cache_bits = 10;

    /** version(): fresh when made, kept by a copy, passed on by a
     *  move, which leaves the moved-from one fresh. */
    class Version
    {
      public:
        Version() : _value(next()) {}
        Version(const Version &) = default;
        Version &operator=(const Version &) = default;
        Version(Version &&other) noexcept : _value(other._value)
        {
            other.bump();
        }
        Version &
        operator=(Version &&other) noexcept
        {
            _value = other._value;
            other.bump();
            return *this;
        }

        void bump() { _value = next(); }
        uint64_t value() const { return _value; }

      private:
        static uint64_t next();

        uint64_t _value;
    };

    RangeUpdate setRangeLive(uint64_t begin, uint64_t end, bool live);
    void buildLivenessIndex();
    size_t edgeFromNode(size_t edge) const;

    std::vector<uint64_t> _nodeAddrs;     ///< sorted
    std::vector<uint32_t> _offsets;       ///< CSR, size numNodes()+1
    std::vector<uint64_t> _targets;       ///< sorted per node
    std::vector<uint8_t> _credits;        ///< per edge, 0 = low
    std::vector<uint8_t> _tntVaried;      ///< per edge
    std::vector<std::vector<TntSequence>> _tntSeqs;  ///< per edge
    /** Per edge: how many of _tntSeqs are trained (they come first),
     *  or trained_varied. What clearRuntime() restores. */
    std::vector<uint8_t> _tntTrained;

    // Runtime overlay and dynamic-code state (empty until used).
    std::vector<uint8_t> _runtimeCredit;  ///< per edge, lazily sized
    bool _livenessEnabled = false;
    std::vector<uint8_t> _liveNode;       ///< per node
    std::vector<uint32_t> _edgeFrom;      ///< per edge: source node
    std::vector<uint32_t> _targetNode;    ///< per edge: target node
    std::vector<uint32_t> _inOffsets;     ///< transpose CSR
    std::vector<uint32_t> _inEdgeIds;     ///< transpose CSR payload
    /** findEdgeCached() slots, sized on first use; a rebase empties
     *  it. */
    std::vector<EdgeCacheSlot> _edgeCache;
    Version _version;
};

} // namespace flowguard::analysis

#endif // FLOWGUARD_ANALYSIS_ITC_CFG_HH

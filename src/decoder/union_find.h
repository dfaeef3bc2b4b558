/**
 * @file
 * Union-Find decoder (Delfosse-Nickerson) on a matching graph.
 *
 * Clusters grow from flipped detectors in half-edge increments until every
 * cluster is neutral (even defect parity or touching the boundary), then a
 * peeling pass over the grown spanning forest produces the correction. This
 * is our stand-in for PyMatching's sparse-blossom MWPM: it keeps the
 * library free of an external matching dependency while giving near-MWPM
 * accuracy with near-linear runtime.
 *
 * Every step works on the shot's own clusters only. A detector's state is
 * initialised the first time the shot touches it, and each cluster keeps
 * its members in a ring that is spliced on union. A growth round walks
 * the incident edges of the members of the clusters that are active at the
 * start of the round; a per-round stamp counts each edge once, and an edge
 * grows by the number of its active endpoint clusters. Peeling builds its
 * forest from the grown edges: trees rooted at grown boundary edges in
 * ascending edge order, then at leftover defects in ascending detector
 * order. At the end only the touched detectors and edges are reset.
 *
 * The predictions are bit for bit those of the dense decoder that scans
 * every detector and edge each round (oracles::DenseUnionFind in
 * tests/support), on every shot and whatever the same object decoded
 * before: a full scan's growth depends only on cluster membership at the
 * start of the round, which is what the sparse walk reads.
 */
#ifndef PROPHUNT_DECODER_UNION_FIND_H
#define PROPHUNT_DECODER_UNION_FIND_H

#include <memory>

#include "decoder/decoder.h"
#include "decoder/matching_graph.h"

namespace prophunt::decoder {

/** Union-Find matching decoder. Reusable across shots; a warm decoder
 * makes no heap allocation per shot. */
class UnionFindDecoder : public Decoder
{
  public:
    explicit UnionFindDecoder(MatchingGraph graph);

    uint64_t decode(const std::vector<uint32_t> &flipped_detectors) override;

    /** Clones share the immutable matching graph and its incidence
     * lists; a clone copies only the per-shot scratch. */
    std::unique_ptr<Decoder>
    clone() const override
    {
        return std::make_unique<UnionFindDecoder>(*this);
    }

    const MatchingGraph &graph() const { return graph_->match; }

  private:
    /** The matching graph with its detector -> edge incidence in CSR
     * form: detector v's edges, ascending, are
     * incidentEdges[incidentStart[v] .. incidentStart[v + 1]). */
    struct Graph
    {
        MatchingGraph match;
        std::vector<uint32_t> incidentStart;
        std::vector<uint32_t> incidentEdges;
    };

    /** Per-detector scratch, valid while parent != kUntouched. */
    struct Node
    {
        uint32_t parent;
        uint32_t next;       ///< Next member of the cluster's ring.
        uint32_t treeParent; ///< Peeling forest: parent detector...
        uint32_t treeEdge;   ///< ...and the edge to it.
        uint64_t mark;       ///< Round that last listed this root.
        uint8_t rank;
        uint8_t parity;
        uint8_t touchesBoundary;
        uint8_t defect;
        uint8_t visited;
    };
    static constexpr uint32_t kUntouched = 0xffffffffu;

    void touch(uint32_t v);
    uint32_t find(uint32_t v);
    void unite(uint32_t a, uint32_t b);
    bool active(uint32_t root) const;
    void grow();
    uint64_t peel();
    void peelTree(uint32_t root, uint64_t &result);

    std::shared_ptr<const Graph> graph_;

    std::vector<Node> nodes_;
    std::vector<uint8_t> growth_;   ///< Half-edges grown, per edge.
    /** Round that last counted the edge. Rounds are numbered across
     * shots and never wrap, so no stamp needs a reset. */
    std::vector<uint64_t> stamp_;
    uint64_t round_ = 0;

    // Per-shot lists; they keep their capacity across shots.
    std::vector<uint32_t> touched_;  ///< Detectors initialised this shot.
    std::vector<uint32_t> grown_;    ///< Edges with nonzero growth.
    std::vector<uint32_t> defects_;  ///< Flipped detectors, ascending.
    std::vector<uint32_t> active_;   ///< Active cluster roots.
    std::vector<uint32_t> full_;     ///< Edges fully grown this round.
    std::vector<uint32_t> boundaryEdges_; ///< Grown boundary edges.
    std::vector<uint32_t> bfs_;
};

} // namespace prophunt::decoder

#endif // PROPHUNT_DECODER_UNION_FIND_H

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
 */
#ifndef PROPHUNT_DECODER_UNION_FIND_H
#define PROPHUNT_DECODER_UNION_FIND_H

#include "decoder/decoder.h"
#include "decoder/matching_graph.h"

namespace prophunt::decoder {

/** Union-Find matching decoder. Reusable across shots. */
class UnionFindDecoder : public Decoder
{
  public:
    explicit UnionFindDecoder(MatchingGraph graph);

    uint64_t decode(const std::vector<uint32_t> &flipped_detectors) override;

    std::unique_ptr<Decoder>
    clone() const override
    {
        return std::make_unique<UnionFindDecoder>(*this);
    }

    const MatchingGraph &graph() const { return graph_; }

  private:
    uint32_t find(uint32_t v);
    void unite(uint32_t a, uint32_t b);

    MatchingGraph graph_;

    // Per-decode scratch (sized once).
    std::vector<uint32_t> parent_;
    std::vector<uint8_t> rankOf_;
    std::vector<uint8_t> parity_;
    std::vector<uint8_t> touchesBoundary_;
    std::vector<uint8_t> growth_;
    std::vector<uint8_t> defect_;
};

} // namespace prophunt::decoder

#endif // PROPHUNT_DECODER_UNION_FIND_H

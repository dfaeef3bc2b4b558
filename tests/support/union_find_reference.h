/**
 * @file
 * Reference union-find decoder that the decoder tests compare
 * libprophunt's decoder::UnionFindDecoder against (test support, not
 * libprophunt).
 *
 * DenseUnionFind is the original dense Delfosse-Nickerson decoder: every
 * shot resets all detectors and edges, every growth round scans every
 * detector and every edge of the graph, and peeling rebuilds a full
 * adjacency list. UnionFindDecoder must reproduce its predictions bit for
 * bit on every shot, whatever came before on the same decoder object.
 */
#ifndef PROPHUNT_TESTS_SUPPORT_UNION_FIND_REFERENCE_H
#define PROPHUNT_TESTS_SUPPORT_UNION_FIND_REFERENCE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "decoder/decoder.h"
#include "decoder/matching_graph.h"

namespace prophunt::oracles {

/** Dense union-find matching decoder. Reusable across shots. */
class DenseUnionFind : public decoder::Decoder
{
  public:
    explicit DenseUnionFind(decoder::MatchingGraph graph);

    uint64_t decode(const std::vector<uint32_t> &flipped_detectors) override;

    std::unique_ptr<decoder::Decoder>
    clone() const override
    {
        return std::make_unique<DenseUnionFind>(*this);
    }

  private:
    uint32_t find(uint32_t v);
    void unite(uint32_t a, uint32_t b);

    decoder::MatchingGraph graph_;

    // Per-decode scratch (sized once).
    std::vector<uint32_t> parent_;
    std::vector<uint8_t> rankOf_;
    std::vector<uint8_t> parity_;
    std::vector<uint8_t> touchesBoundary_;
    std::vector<uint8_t> growth_;
    std::vector<uint8_t> defect_;
};

} // namespace prophunt::oracles

#endif // PROPHUNT_TESTS_SUPPORT_UNION_FIND_REFERENCE_H

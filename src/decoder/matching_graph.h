/**
 * @file
 * Matching graphs for union-find decoding.
 *
 * The DEM of a CSS memory experiment is nearly graph-like: most mechanisms
 * flip at most two detectors. Y-type faults flip detectors in both check
 * sectors (X-check detectors and Z-check detectors); splitting each
 * mechanism by sector yields per-sector components that are almost always
 * edges. The remaining multi-detector components (hook errors spanning
 * several rounds or data qubits) are greedily decomposed into known edges,
 * mirroring Stim's decompose_errors pass. Mechanisms with a single detector
 * become boundary edges.
 */
#ifndef PROPHUNT_DECODER_MATCHING_GRAPH_H
#define PROPHUNT_DECODER_MATCHING_GRAPH_H

#include <cstdint>
#include <vector>

#include "circuit/sm_circuit.h"
#include "sim/dem.h"

namespace prophunt::decoder {

/** One matching edge. node == kBoundary denotes the virtual boundary. */
struct MatchEdge
{
    static constexpr uint32_t kBoundary = 0xffffffffu;
    uint32_t u = 0;
    uint32_t v = kBoundary;
    /** Observable flips carried by this edge. */
    uint64_t obsMask = 0;
    /** Total probability of the merged mechanisms on this edge. */
    double p = 0.0;
};

/** A decoding graph suitable for union-find matching. */
struct MatchingGraph
{
    std::size_t numDetectors = 0;
    std::vector<MatchEdge> edges;

    /** Count of hyperedge components that required fallback splitting. */
    std::size_t fallbackDecompositions = 0;
};

/**
 * Build a matching graph from a DEM.
 *
 * @param dem The detector error model.
 * @param circuit The circuit (provides detector -> check-sector labels).
 */
MatchingGraph buildMatchingGraph(const sim::Dem &dem,
                                 const circuit::SmCircuit &circuit);

} // namespace prophunt::decoder

#endif // PROPHUNT_DECODER_MATCHING_GRAPH_H

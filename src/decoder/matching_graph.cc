#include "decoder/matching_graph.h"

#include <algorithm>
#include <map>
#include <set>

namespace prophunt::decoder {

namespace {

/** Merge an edge into the graph, combining parallel edges. */
void
addEdge(MatchingGraph &g, std::map<std::pair<uint32_t, uint32_t>,
                                   std::size_t> &edge_index,
        uint32_t u, uint32_t v, uint64_t obs, double p)
{
    if (u > v) {
        std::swap(u, v);
    }
    auto key = std::make_pair(u, v);
    auto it = edge_index.find(key);
    if (it != edge_index.end()) {
        MatchEdge &e = g.edges[it->second];
        // Parallel mechanisms with different observable masks are kept as
        // the more likely branch; same-mask mechanisms combine.
        if (e.obsMask == obs) {
            e.p = e.p + p - 2.0 * e.p * p;
        } else if (p > e.p) {
            e.obsMask = obs;
            e.p = p;
        }
        return;
    }
    edge_index.emplace(key, g.edges.size());
    g.edges.push_back({u, v, obs, p});
}

} // namespace

MatchingGraph
buildMatchingGraph(const sim::Dem &dem, const circuit::SmCircuit &circuit)
{
    MatchingGraph g;
    g.numDetectors = dem.numDetectors;

    // A detector's sector is its source check's type, and the X checks
    // are exactly the checks the circuit measures with MeasureX.
    std::vector<bool> check_is_x;
    for (std::size_t i = 0; i < circuit.instructions.size(); ++i) {
        const auto &ins = circuit.instructions[i];
        if ((ins.op == circuit::OpType::MeasureX ||
             ins.op == circuit::OpType::MeasureZ) &&
            ins.qubits[0] >= circuit.numData) {
            std::size_t check = ins.qubits[0] - circuit.numData;
            if (check_is_x.size() <= check) {
                check_is_x.resize(check + 1, false);
            }
            check_is_x[check] = ins.op == circuit::OpType::MeasureX;
        }
    }
    auto det_is_x_sector = [&](uint32_t det) {
        return check_is_x[circuit.detectorSource[det].first];
    };

    std::map<std::pair<uint32_t, uint32_t>, std::size_t> edge_index;

    // First pass: mechanisms whose per-sector components are already
    // edge-like (size <= 2) define the known edge set.
    struct Component
    {
        std::vector<uint32_t> dets;
        uint64_t obs;
        double p;
    };
    std::vector<Component> deferred;

    for (const auto &mech : dem.errors) {
        uint64_t obs = 0;
        for (uint32_t o : mech.observables) {
            obs |= uint64_t{1} << o;
        }
        std::vector<uint32_t> xs, zs;
        for (uint32_t d : mech.detectors) {
            (det_is_x_sector(d) ? xs : zs).push_back(d);
        }
        // The observable mask rides on the sector that carries the logical
        // flip; in a memory experiment that is the deterministic-basis
        // sector (the one with final-round detectors). If one component is
        // empty the other takes it regardless.
        bool obs_on_z = circuit.basis == circuit::MemoryBasis::Z;
        auto handle = [&](std::vector<uint32_t> &comp, uint64_t comp_obs) {
            if (comp.empty() && comp_obs == 0) {
                return;
            }
            if (comp.size() == 0) {
                // Undetected logical flip: represent as a boundary self
                // edge on the virtual boundary (decoder can never predict
                // it; it contributes directly to the error floor). Skip.
                return;
            }
            if (comp.size() == 1) {
                addEdge(g, edge_index, comp[0], MatchEdge::kBoundary,
                        comp_obs, mech.p);
            } else if (comp.size() == 2) {
                addEdge(g, edge_index, comp[0], comp[1], comp_obs, mech.p);
            } else {
                deferred.push_back({comp, comp_obs, mech.p});
            }
        };
        uint64_t z_obs = obs_on_z ? obs : 0;
        uint64_t x_obs = obs_on_z ? 0 : obs;
        // If a component is empty, give the observable to the other one.
        if (zs.empty() && z_obs) {
            x_obs |= z_obs;
            z_obs = 0;
        }
        if (xs.empty() && x_obs) {
            z_obs |= x_obs;
            x_obs = 0;
        }
        handle(zs, z_obs);
        handle(xs, x_obs);
    }

    // Second pass: decompose larger components into known edges.
    for (const auto &comp : deferred) {
        std::vector<uint32_t> rest = comp.dets;
        std::vector<std::pair<uint32_t, uint32_t>> pieces;
        bool progress = true;
        while (rest.size() > 1 && progress) {
            progress = false;
            for (std::size_t i = 0; i < rest.size() && !progress; ++i) {
                for (std::size_t j = i + 1; j < rest.size() && !progress;
                     ++j) {
                    uint32_t a = std::min(rest[i], rest[j]);
                    uint32_t b = std::max(rest[i], rest[j]);
                    if (edge_index.count({a, b})) {
                        pieces.push_back({a, b});
                        rest.erase(rest.begin() + (long)j);
                        rest.erase(rest.begin() + (long)i);
                        progress = true;
                    }
                }
            }
        }
        if (!progress && rest.size() > 1) {
            ++g.fallbackDecompositions;
            // Fallback: pair sequentially.
            while (rest.size() > 1) {
                pieces.push_back({rest[rest.size() - 2], rest.back()});
                rest.pop_back();
                rest.pop_back();
            }
        }
        for (uint32_t d : rest) {
            pieces.push_back({d, MatchEdge::kBoundary});
        }
        // The observable mask goes to the first piece; the rest are plain.
        for (std::size_t i = 0; i < pieces.size(); ++i) {
            addEdge(g, edge_index, pieces[i].first, pieces[i].second,
                    i == 0 ? comp.obs : 0, comp.p);
        }
    }
    return g;
}

} // namespace prophunt::decoder

#include "support/union_find_reference.h"

#include <algorithm>

namespace prophunt::oracles {

using decoder::MatchEdge;
using decoder::MatchingGraph;

DenseUnionFind::DenseUnionFind(MatchingGraph graph)
    : graph_(std::move(graph))
{
    std::size_t n = graph_.numDetectors;
    parent_.resize(n);
    rankOf_.resize(n);
    parity_.resize(n);
    touchesBoundary_.resize(n);
    growth_.resize(graph_.edges.size());
    defect_.resize(n);
}

uint32_t
DenseUnionFind::find(uint32_t v)
{
    while (parent_[v] != v) {
        parent_[v] = parent_[parent_[v]];
        v = parent_[v];
    }
    return v;
}

void
DenseUnionFind::unite(uint32_t a, uint32_t b)
{
    a = find(a);
    b = find(b);
    if (a == b) {
        return;
    }
    if (rankOf_[a] < rankOf_[b]) {
        std::swap(a, b);
    }
    parent_[b] = a;
    parity_[a] ^= parity_[b];
    touchesBoundary_[a] |= touchesBoundary_[b];
    if (rankOf_[a] == rankOf_[b]) {
        ++rankOf_[a];
    }
}

uint64_t
DenseUnionFind::decode(const std::vector<uint32_t> &flipped_detectors)
{
    if (flipped_detectors.empty()) {
        return 0;
    }
    std::size_t n = graph_.numDetectors;
    for (std::size_t v = 0; v < n; ++v) {
        parent_[v] = (uint32_t)v;
        rankOf_[v] = 0;
        parity_[v] = 0;
        touchesBoundary_[v] = 0;
        defect_[v] = 0;
    }
    std::fill(growth_.begin(), growth_.end(), 0);
    for (uint32_t d : flipped_detectors) {
        parity_[d] = 1;
        defect_[d] = 1;
    }

    auto active = [&](uint32_t v) {
        uint32_t r = find(v);
        return parity_[r] == 1 && !touchesBoundary_[r];
    };

    // Growth stage. Each round grows the frontier of every active cluster
    // by one half-edge; fully grown edges merge clusters.
    bool any_active = true;
    std::size_t guard = 0;
    while (any_active && guard++ < 4 * n + 16) {
        any_active = false;
        for (uint32_t v = 0; v < n; ++v) {
            if (active(v) && find(v) == v) {
                any_active = true;
            }
        }
        if (!any_active) {
            break;
        }
        std::vector<uint32_t> newly_grown;
        for (std::size_t e = 0; e < graph_.edges.size(); ++e) {
            if (growth_[e] >= 2) {
                continue;
            }
            const MatchEdge &edge = graph_.edges[e];
            bool boundary = edge.v == MatchEdge::kBoundary;
            uint32_t ru = find(edge.u);
            uint32_t rv = boundary ? MatchEdge::kBoundary : find(edge.v);
            if (!boundary && ru == rv) {
                continue; // interior edge
            }
            int inc = 0;
            if (parity_[ru] == 1 && !touchesBoundary_[ru]) {
                ++inc;
            }
            if (!boundary && parity_[rv] == 1 && !touchesBoundary_[rv]) {
                ++inc;
            }
            if (inc == 0) {
                continue;
            }
            growth_[e] = (uint8_t)std::min(2, growth_[e] + inc);
            if (growth_[e] >= 2) {
                newly_grown.push_back((uint32_t)e);
            }
        }
        for (uint32_t e : newly_grown) {
            const MatchEdge &edge = graph_.edges[e];
            if (edge.v == MatchEdge::kBoundary) {
                touchesBoundary_[find(edge.u)] = 1;
            } else {
                unite(edge.u, edge.v);
            }
        }
    }

    // Peeling stage over the grown subgraph. Virtual copies of the boundary
    // per boundary edge keep the forest acyclic, and rooting trees at a
    // boundary copy lets leftover defects be absorbed there.
    std::size_t num_virtual = 0;
    std::vector<std::pair<uint32_t, uint32_t>> adj_count(n, {0, 0});
    (void)adj_count;
    std::vector<std::vector<std::pair<uint32_t, uint32_t>>> adj(n);
    std::vector<uint32_t> boundary_edges;
    for (std::size_t e = 0; e < graph_.edges.size(); ++e) {
        if (growth_[e] < 2) {
            continue;
        }
        const MatchEdge &edge = graph_.edges[e];
        if (edge.v == MatchEdge::kBoundary) {
            boundary_edges.push_back((uint32_t)e);
            ++num_virtual;
        } else {
            adj[edge.u].push_back({edge.v, (uint32_t)e});
            adj[edge.v].push_back({edge.u, (uint32_t)e});
        }
    }

    uint64_t result = 0;
    std::vector<uint8_t> visited(n, 0);
    std::vector<uint32_t> bfs_order;
    std::vector<uint32_t> parent_node(n, MatchEdge::kBoundary);
    std::vector<uint32_t> parent_edge(n, MatchEdge::kBoundary);

    auto bfs_tree = [&](uint32_t root) {
        std::size_t start = bfs_order.size();
        visited[root] = 1;
        bfs_order.push_back(root);
        for (std::size_t i = start; i < bfs_order.size(); ++i) {
            uint32_t v = bfs_order[i];
            for (const auto &[w, e] : adj[v]) {
                if (!visited[w]) {
                    visited[w] = 1;
                    parent_node[w] = v;
                    parent_edge[w] = e;
                    bfs_order.push_back(w);
                }
            }
        }
        // Peel this tree leaves-first (reverse BFS order).
        for (std::size_t i = bfs_order.size(); i-- > start + 1;) {
            uint32_t v = bfs_order[i];
            if (defect_[v]) {
                result ^= graph_.edges[parent_edge[v]].obsMask;
                defect_[v] = 0;
                defect_[parent_node[v]] ^= 1;
            }
        }
        // Leftover defect at the root is handled by the caller (boundary).
    };

    // Trees containing boundary edges: root at the boundary-attached node
    // and discharge the root defect through the boundary edge.
    for (uint32_t e : boundary_edges) {
        uint32_t root = graph_.edges[e].u;
        if (visited[root]) {
            continue;
        }
        bfs_tree(root);
        if (defect_[root]) {
            result ^= graph_.edges[e].obsMask;
            defect_[root] = 0;
        }
    }
    // Remaining trees have even defect count; any root works.
    for (uint32_t v = 0; v < n; ++v) {
        if (!visited[v] && defect_[v]) {
            bfs_tree(v);
        }
    }
    return result;
}

} // namespace prophunt::oracles

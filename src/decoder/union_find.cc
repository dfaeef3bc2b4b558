#include "decoder/union_find.h"

#include <algorithm>

namespace prophunt::decoder {

UnionFindDecoder::UnionFindDecoder(MatchingGraph graph)
{
    auto g = std::make_shared<Graph>();
    const std::size_t n = graph.numDetectors;
    // Counting sort by endpoint; scanning edges in ascending order leaves
    // every detector's list ascending, the order peeling visits them in.
    g->incidentStart.assign(n + 1, 0);
    for (const MatchEdge &edge : graph.edges) {
        ++g->incidentStart[edge.u + 1];
        if (edge.v != MatchEdge::kBoundary) {
            ++g->incidentStart[edge.v + 1];
        }
    }
    for (std::size_t v = 0; v < n; ++v) {
        g->incidentStart[v + 1] += g->incidentStart[v];
    }
    g->incidentEdges.resize(g->incidentStart[n]);
    std::vector<uint32_t> cursor(g->incidentStart.begin(),
                                 g->incidentStart.end() - 1);
    for (std::size_t e = 0; e < graph.edges.size(); ++e) {
        const MatchEdge &edge = graph.edges[e];
        g->incidentEdges[cursor[edge.u]++] = (uint32_t)e;
        if (edge.v != MatchEdge::kBoundary) {
            g->incidentEdges[cursor[edge.v]++] = (uint32_t)e;
        }
    }
    nodes_.assign(n, Node{kUntouched, 0, 0, 0, 0, 0, 0, 0, 0, 0});
    growth_.assign(graph.edges.size(), 0);
    stamp_.assign(graph.edges.size(), 0);
    g->match = std::move(graph);
    graph_ = std::move(g);
}

void
UnionFindDecoder::touch(uint32_t v)
{
    Node &node = nodes_[v];
    if (node.parent == kUntouched) {
        node = Node{v, v, 0, 0, 0, 0, 0, 0, 0, 0};
        touched_.push_back(v);
    }
}

uint32_t
UnionFindDecoder::find(uint32_t v)
{
    while (nodes_[v].parent != v) {
        nodes_[v].parent = nodes_[nodes_[v].parent].parent;
        v = nodes_[v].parent;
    }
    return v;
}

void
UnionFindDecoder::unite(uint32_t a, uint32_t b)
{
    a = find(a);
    b = find(b);
    if (a == b) {
        return;
    }
    if (nodes_[a].rank < nodes_[b].rank) {
        std::swap(a, b);
    }
    Node &ra = nodes_[a];
    Node &rb = nodes_[b];
    rb.parent = a;
    ra.parity ^= rb.parity;
    ra.touchesBoundary |= rb.touchesBoundary;
    if (ra.rank == rb.rank) {
        ++ra.rank;
    }
    // Splice the two member rings into one.
    std::swap(ra.next, rb.next);
}

bool
UnionFindDecoder::active(uint32_t root) const
{
    return nodes_[root].parity == 1 && !nodes_[root].touchesBoundary;
}

uint64_t
UnionFindDecoder::decode(const std::vector<uint32_t> &flipped_detectors)
{
    if (flipped_detectors.empty()) {
        return 0;
    }
    defects_.clear();
    for (uint32_t d : flipped_detectors) {
        touch(d);
        if (!nodes_[d].defect) {
            nodes_[d].defect = 1;
            nodes_[d].parity = 1;
            defects_.push_back(d);
        }
    }
    std::sort(defects_.begin(), defects_.end());
    active_.assign(defects_.begin(), defects_.end());

    grow();
    uint64_t result = peel();

    for (uint32_t v : touched_) {
        nodes_[v].parent = kUntouched;
    }
    for (uint32_t e : grown_) {
        growth_[e] = 0;
    }
    touched_.clear();
    grown_.clear();
    boundaryEdges_.clear();
    return result;
}

void
UnionFindDecoder::grow()
{
    // Each round grows the frontier of every active cluster by one
    // half-edge; fully grown edges merge clusters. Only unions change a
    // cluster's parity or boundary contact, and every fully grown edge
    // has an active endpoint, so the clusters active in a round are among
    // the merged clusters of the previous round's active roots.
    const Graph &g = *graph_;
    const std::size_t n = g.match.numDetectors;
    std::size_t guard = 0;
    while (guard++ < 4 * n + 16) {
        const uint64_t round = ++round_;
        std::size_t live = 0;
        for (uint32_t r : active_) {
            r = find(r);
            if (active(r) && nodes_[r].mark != round) {
                nodes_[r].mark = round;
                active_[live++] = r;
            }
        }
        active_.resize(live);
        if (live == 0) {
            break;
        }
        full_.clear();
        for (uint32_t r : active_) {
            uint32_t v = r;
            do {
                for (uint32_t k = g.incidentStart[v];
                     k < g.incidentStart[v + 1]; ++k) {
                    uint32_t e = g.incidentEdges[k];
                    if (growth_[e] >= 2 || stamp_[e] == round) {
                        continue;
                    }
                    stamp_[e] = round;
                    // v's cluster r is active; the edge also grows from
                    // the far endpoint's cluster if that one is active.
                    // The far endpoint may be new to this shot: initialise
                    // it before reading its cluster.
                    const MatchEdge &edge = g.match.edges[e];
                    uint32_t w = edge.u == v ? edge.v : edge.u;
                    int inc = 1;
                    if (w != MatchEdge::kBoundary) {
                        touch(w);
                        uint32_t rw = find(w);
                        if (rw == r) {
                            continue; // interior edge
                        }
                        inc += active(rw);
                    }
                    if (growth_[e] == 0) {
                        grown_.push_back(e);
                    }
                    growth_[e] = (uint8_t)std::min(2, growth_[e] + inc);
                    if (growth_[e] >= 2) {
                        full_.push_back(e);
                    }
                }
                v = nodes_[v].next;
            } while (v != r);
        }
        for (uint32_t e : full_) {
            const MatchEdge &edge = g.match.edges[e];
            if (edge.v == MatchEdge::kBoundary) {
                nodes_[find(edge.u)].touchesBoundary = 1;
                boundaryEdges_.push_back(e);
            } else {
                unite(edge.u, edge.v);
            }
        }
    }
}

void
UnionFindDecoder::peelTree(uint32_t root, uint64_t &result)
{
    // Breadth-first spanning tree of the grown edges, each detector's
    // edges in ascending order, then peel it leaves-first.
    const Graph &g = *graph_;
    bfs_.clear();
    nodes_[root].visited = 1;
    bfs_.push_back(root);
    for (std::size_t i = 0; i < bfs_.size(); ++i) {
        uint32_t v = bfs_[i];
        for (uint32_t k = g.incidentStart[v]; k < g.incidentStart[v + 1];
             ++k) {
            uint32_t e = g.incidentEdges[k];
            const MatchEdge &edge = g.match.edges[e];
            if (growth_[e] < 2 || edge.v == MatchEdge::kBoundary) {
                continue;
            }
            uint32_t w = edge.u == v ? edge.v : edge.u;
            if (!nodes_[w].visited) {
                nodes_[w].visited = 1;
                nodes_[w].treeParent = v;
                nodes_[w].treeEdge = e;
                bfs_.push_back(w);
            }
        }
    }
    for (std::size_t i = bfs_.size(); i-- > 1;) {
        Node &node = nodes_[bfs_[i]];
        if (node.defect) {
            result ^= g.match.edges[node.treeEdge].obsMask;
            node.defect = 0;
            nodes_[node.treeParent].defect ^= 1;
        }
    }
    // A leftover defect at the root is handled by the caller (boundary).
}

uint64_t
UnionFindDecoder::peel()
{
    // Virtual copies of the boundary per boundary edge keep the forest
    // acyclic, and rooting trees at a boundary copy lets leftover defects
    // be absorbed there.
    const Graph &g = *graph_;
    uint64_t result = 0;
    // Trees containing boundary edges: root at the boundary-attached node
    // and discharge the root defect through the boundary edge.
    std::sort(boundaryEdges_.begin(), boundaryEdges_.end());
    for (uint32_t e : boundaryEdges_) {
        uint32_t root = g.match.edges[e].u;
        if (nodes_[root].visited) {
            continue;
        }
        peelTree(root, result);
        if (nodes_[root].defect) {
            result ^= g.match.edges[e].obsMask;
            nodes_[root].defect = 0;
        }
    }
    // Remaining trees have even defect count; any root works. Peeling
    // moves defects only inside visited trees, so an unvisited detector
    // still holds its flipped state.
    for (uint32_t v : defects_) {
        if (!nodes_[v].visited && nodes_[v].defect) {
            peelTree(v, result);
        }
    }
    return result;
}

} // namespace prophunt::decoder

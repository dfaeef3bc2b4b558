#include "decoder/bp_osd.h"

#include <bit>
#include <algorithm>
#include <cmath>

namespace prophunt::decoder {

namespace {

/**
 * Elimination usually terminates within a few dozen columns, so the
 * posterior ranking is sorted lazily: first the kOsdPrefix most likely
 * columns, then chunks kOsdGrowth times larger whenever the elimination
 * outruns the sorted prefix. The (posterior, column id) keys are a strict
 * total order, so the pivot sequence equals a full sort's.
 */
constexpr std::size_t kOsdPrefix = 32;
constexpr std::size_t kOsdGrowth = 4;

/**
 * Map a posterior to a uint64 whose integer order equals double order.
 * -0.0 is collapsed onto +0.0 first so key equality matches double
 * equality exactly — the column-id tie-break must fire for the same
 * pairs as a (post, col) comparator would. Finite and infinite values
 * order correctly; posteriors are never NaN.
 */
inline uint64_t
osdPostKey(double v)
{
    if (v == 0.0) {
        v = 0.0;
    }
    uint64_t b = std::bit_cast<uint64_t>(v);
    return (b & (uint64_t{1} << 63)) != 0 ? ~b : (b | (uint64_t{1} << 63));
}

} // namespace


std::shared_ptr<const BpOsdDecoder::Tanner>
BpOsdDecoder::buildTanner(const sim::Dem &dem)
{
    auto t = std::make_shared<Tanner>();
    std::size_t numDetectors = dem.numDetectors;
    std::size_t ne = dem.errors.size();
    // Flatten the Tanner graph once: edge e of column c occupies slots
    // colBegin[c]..colBegin[c+1]; detEdges lists the same edge ids per
    // detector in (column, slot) order — the traversal order every
    // per-shot pass reuses.
    t->colBegin.assign(ne + 1, 0);
    for (std::size_t e = 0; e < ne; ++e) {
        const auto &mech = dem.errors[e];
        uint64_t obs = 0;
        for (uint32_t o : mech.observables) {
            obs |= uint64_t{1} << o;
        }
        t->colObs.push_back(obs);
        double p = std::clamp(mech.p, 1e-12, 0.5 - 1e-12);
        double prior = std::log((1.0 - p) / p);
        t->prior.push_back(prior);
        t->colBegin[e + 1] = t->colBegin[e] + (uint32_t)mech.detectors.size();
        for (uint32_t d : mech.detectors) {
            t->colDet.push_back(d);
            t->edgePrior.push_back(prior);
        }
        if (!mech.detectors.empty()) {
            auto it = t->single.find(mech.detectors);
            if (it == t->single.end() || mech.p > it->second.second) {
                t->single[mech.detectors] = {obs, mech.p};
            }
        }
    }
    std::size_t edges = t->colDet.size();
    t->detBegin.assign(numDetectors + 1, 0);
    for (uint32_t d : t->colDet) {
        ++t->detBegin[d + 1];
    }
    for (std::size_t d = 0; d < numDetectors; ++d) {
        t->detBegin[d + 1] += t->detBegin[d];
    }
    t->detEdges.resize(edges);
    {
        std::vector<uint32_t> fill(t->detBegin.begin(),
                                   t->detBegin.end() - 1);
        for (std::size_t e = 0; e < edges; ++e) {
            t->detEdges[fill[t->colDet[e]]++] = (uint32_t)e;
        }
    }
    t->colBits.reset(ne, numDetectors);
    for (std::size_t c = 0; c < ne; ++c) {
        for (uint32_t e = t->colBegin[c]; e < t->colBegin[c + 1]; ++e) {
            t->colBits.set(c, t->colDet[e]);
        }
    }
    return t;
}

BpOsdDecoder::BpOsdDecoder(const sim::Dem &dem, BpOsdOptions opts)
    : opts_(opts), numDetectors_(dem.numDetectors), tanner_(buildTanner(dem))
{
}

bool
BpOsdDecoder::decodeTrivial(const std::vector<uint32_t> &flipped,
                            uint64_t &out) const
{
    out = 0;
    if (flipped.empty()) {
        return true;
    }
    // Weight-1 fast path: a syndrome exactly matching one mechanism is
    // overwhelmingly most likely explained by it (p >> p^2).
    auto hit = tanner_->single.find(flipped);
    if (hit != tanner_->single.end()) {
        out = hit->second.first;
        return true;
    }
    for (uint32_t d : flipped) {
        if (tanner_->detBegin[d + 1] == tanner_->detBegin[d]) {
            return true; // No column can explain this detector.
        }
    }
    return false;
}

bool
BpOsdDecoder::osdSolve(const std::vector<double> &post,
                       const std::vector<uint32_t> &flipped,
                       std::vector<uint32_t> &solution)
{
    // OSD-0: process columns in decreasing error likelihood (ascending
    // posterior LLR) and solve H x = s by incremental elimination on the
    // shared packed columns. Ties are broken by column id: the pivot
    // order must not depend on the sort strategy (full vs lazy prefix)
    // even when posteriors collide exactly (duplicated priors make that
    // common, not hypothetical). The ranking runs on flat OsdKey records
    // — the indirect double comparator, not the elimination, used to
    // dominate the post-pass on large graphs.
    std::size_t ne = tanner_->numCols();
    osdKeys_.resize(ne);
    for (std::size_t c = 0; c < ne; ++c) {
        osdKeys_[c] = OsdKey{osdPostKey(post[c]), (uint32_t)c};
    }
    osdSortedPrefix_ = 0;
    osdSortMore();
    elim_.begin(numDetectors_);
    for (uint32_t d : flipped) {
        elim_.setSyndromeBit(d);
    }
    for (std::size_t oi = 0; oi < ne; ++oi) {
        if (oi == osdSortedPrefix_) {
            osdSortMore();
        }
        if (elim_.push(tanner_->colBits.row(osdKeys_[oi].col))) {
            // Push index i is key i: the lazy sort never moves a key it
            // has already handed out.
            elim_.solution(solution);
            for (uint32_t &idx : solution) {
                idx = osdKeys_[idx].col;
            }
            return true;
        }
    }
    solution.clear();
    return false;
}

void
BpOsdDecoder::osdSortMore()
{
    std::size_t from = osdSortedPrefix_;
    std::size_t to = std::min(osdKeys_.size(),
                              std::max(kOsdPrefix, kOsdGrowth * from));
    if (to < osdKeys_.size()) {
        std::nth_element(osdKeys_.begin() + from, osdKeys_.begin() + to,
                         osdKeys_.end());
    }
    std::sort(osdKeys_.begin() + from, osdKeys_.begin() + to);
    osdSortedPrefix_ = to;
}

uint64_t
BpOsdDecoder::decode(const std::vector<uint32_t> &flipped_detectors)
{
    uint64_t out = 0;
    if (decodeTrivial(flipped_detectors, out)) {
        return out;
    }
    const uint32_t offsets[2] = {0, (uint32_t)flipped_detectors.size()};
    laneQueue_.assign(1, 0);
    laneRun(flipped_detectors.data(), offsets, &out, nullptr);
    return out;
}

} // namespace prophunt::decoder

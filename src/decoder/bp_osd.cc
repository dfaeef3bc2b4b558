#include "decoder/bp_osd.h"

#include <bit>
#include <algorithm>
#include <cmath>
#include <numeric>

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
    t->allCols.resize(ne);
    std::iota(t->allCols.begin(), t->allCols.end(), 0);
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
BpOsdDecoder::osdSolve(const std::vector<uint32_t> &cols, const double *post,
                       const std::vector<uint32_t> &flipped, bool packed)
{
    // OSD-0: process columns in decreasing error likelihood (ascending
    // posterior LLR) and solve H x = s by incremental elimination on
    // packed column vectors. Ties are broken by global column id: the
    // pivot order must be identical across elimination backends, sort
    // strategies (full vs lazy prefix), and column orders even when
    // posteriors collide exactly (duplicated priors make that common,
    // not hypothetical). The ranking runs on flat OsdKey records — the
    // indirect double comparator, not the elimination, used to dominate
    // the post-pass on large graphs.
    std::size_t ne = cols.size();
    osdKeys_.resize(ne);
    for (std::size_t i = 0; i < ne; ++i) {
        osdKeys_[i] = OsdKey{osdPostKey(post[i]), cols[i], (uint32_t)i};
    }
    osdSortedPrefix_ = 0;
    osdSortMore();
    solUses_.assign(ne, 0);
    if (packed) {
        return osdSolvePacked(cols, flipped);
    }
    return osdSolveScalar(cols, flipped);
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

bool
BpOsdDecoder::osdSolvePacked(const std::vector<uint32_t> &cols,
                             const std::vector<uint32_t> &flipped)
{
    elim_.begin(numDetectors_);
    for (uint32_t d : flipped) {
        elim_.setSyndromeBit(d);
    }
    osdPushPos_.clear();
    bool solved = false;
    for (std::size_t oi = 0; oi < cols.size(); ++oi) {
        if (oi == osdSortedPrefix_) {
            osdSortMore();
        }
        uint32_t oc = osdKeys_[oi].pos;
        osdPushPos_.push_back(oc);
        if (elim_.push(tanner_->colBits.row(cols[oc]))) {
            solved = true;
            break;
        }
    }
    if (solved) {
        elim_.solution(osdSolIdx_);
        for (uint32_t idx : osdSolIdx_) {
            solUses_[osdPushPos_[idx]] = 1;
        }
    }
    return solved;
}

bool
BpOsdDecoder::osdSolveScalar(const std::vector<uint32_t> &cols,
                             const std::vector<uint32_t> &flipped)
{
    std::size_t ne = cols.size(), nd = numDetectors_;
    std::size_t words = tanner_->colBits.rowWords();
    synWords_.assign(words, 0);
    for (uint32_t d : flipped) {
        synWords_[d >> 6] |= uint64_t{1} << (d & 63);
    }
    pivRow_.clear();
    pivCols_.clear();
    pivMembers_.clear();
    pivMemBegin_.assign(1, 0);
    bool solved = false;
    // Reduce the syndrome as we go; solution = pivots whose row bit is
    // set in the (running) reduced syndrome.
    for (std::size_t oi = 0; oi < ne; ++oi) {
        if (oi == osdSortedPrefix_) {
            osdSortMore();
        }
        uint32_t oc = osdKeys_[oi].pos;
        const uint64_t *packedCol = tanner_->colBits.row(cols[oc]);
        colWords_.assign(packedCol, packedCol + words);
        memScratch_.clear();
        memScratch_.push_back(oc);
        std::size_t npiv = pivRow_.size();
        for (std::size_t pi = 0; pi < npiv; ++pi) {
            std::size_t prow = pivRow_[pi];
            if ((colWords_[prow >> 6] >> (prow & 63)) & 1) {
                const uint64_t *pc = pivCols_.data() + pi * words;
                for (std::size_t w = 0; w < words; ++w) {
                    colWords_[w] ^= pc[w];
                }
                for (uint32_t mi = pivMemBegin_[pi];
                     mi < pivMemBegin_[pi + 1]; ++mi) {
                    memScratch_.push_back(pivMembers_[mi]);
                }
            }
        }
        std::size_t row = nd;
        for (std::size_t w = 0; w < words && row == nd; ++w) {
            if (colWords_[w]) {
                row = (w << 6) + std::countr_zero(colWords_[w]);
            }
        }
        if (row == nd) {
            continue; // dependent column
        }
        pivRow_.push_back((uint32_t)row);
        pivCols_.insert(pivCols_.end(), colWords_.begin(), colWords_.end());
        pivMembers_.insert(pivMembers_.end(), memScratch_.begin(),
                           memScratch_.end());
        pivMemBegin_.push_back((uint32_t)pivMembers_.size());
        // Check if the syndrome is now explainable.
        rScratch_.assign(synWords_.begin(), synWords_.end());
        useScratch_.assign(npiv + 1, 0);
        for (std::size_t pi = 0; pi < npiv + 1; ++pi) {
            std::size_t prow = pivRow_[pi];
            if ((rScratch_[prow >> 6] >> (prow & 63)) & 1) {
                const uint64_t *pc = pivCols_.data() + pi * words;
                for (std::size_t w = 0; w < words; ++w) {
                    rScratch_[w] ^= pc[w];
                }
                useScratch_[pi] = 1;
            }
        }
        bool zero = true;
        for (uint64_t w : rScratch_) {
            if (w) {
                zero = false;
                break;
            }
        }
        if (zero) {
            for (std::size_t pi = 0; pi < npiv + 1; ++pi) {
                if (useScratch_[pi]) {
                    for (uint32_t mi = pivMemBegin_[pi];
                         mi < pivMemBegin_[pi + 1]; ++mi) {
                        solUses_[pivMembers_[mi]] ^= 1;
                    }
                }
            }
            solved = true;
            break;
        }
    }
    return solved;
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

uint64_t
BpOsdDecoder::decodeReference(const std::vector<uint32_t> &flipped_detectors)
{
    if (flipped_detectors.empty()) {
        return 0;
    }
    // Weight-1 fast path: a syndrome exactly matching one mechanism is
    // overwhelmingly most likely explained by it (p >> p^2).
    auto hit = tanner_->single.find(flipped_detectors);
    if (hit != tanner_->single.end()) {
        return hit->second.first;
    }
    const Tanner &t = *tanner_;
    std::size_t nd = numDetectors_, ne = t.numCols();
    std::vector<uint8_t> syn(nd, 0);
    for (uint32_t d : flipped_detectors) {
        syn[d] = 1;
    }

    // Edge lists: column c owns edges colBegin[c]..colBegin[c+1].
    std::vector<uint32_t> edge_det; // detector per edge
    std::vector<double> msg_c2d;    // column -> detector messages
    for (std::size_t c = 0; c < ne; ++c) {
        for (uint32_t e = t.colBegin[c]; e < t.colBegin[c + 1]; ++e) {
            edge_det.push_back(t.colDet[e]);
            msg_c2d.push_back(t.prior[c]);
        }
    }
    std::vector<std::vector<uint32_t>> det_edges(nd);
    for (std::size_t e = 0; e < edge_det.size(); ++e) {
        det_edges[edge_det[e]].push_back((uint32_t)e);
    }

    std::vector<double> msg_d2c(edge_det.size(), 0.0);
    std::vector<double> posterior(ne, 0.0);
    std::vector<uint8_t> hard(ne, 0);

    // Hamming distance between the hard-decision parity and the syndrome.
    auto syndrome_mismatches = [&]() {
        std::vector<uint8_t> acc(nd, 0);
        for (std::size_t c = 0; c < ne; ++c) {
            if (!hard[c]) {
                continue;
            }
            for (uint32_t e = t.colBegin[c]; e < t.colBegin[c + 1]; ++e) {
                acc[edge_det[e]] ^= 1;
            }
        }
        std::size_t n = 0;
        for (std::size_t d = 0; d < nd; ++d) {
            n += acc[d] != syn[d];
        }
        return n;
    };

    bool converged = false;
    // All hard decisions start at zero, so every flipped detector
    // mismatches.
    std::size_t best = flipped_detectors.size();
    std::size_t since_best = 0;
    for (std::size_t it = 0; it < opts_.maxIterations && !converged; ++it) {
        // Detector -> column (min-sum with normalization).
        for (std::size_t d = 0; d < nd; ++d) {
            const auto &edges = det_edges[d];
            // Compute product of signs and two smallest magnitudes.
            int sign = syn[d] ? -1 : 1;
            double min1 = 1e300, min2 = 1e300;
            std::size_t argmin = 0;
            for (uint32_t e : edges) {
                double v = msg_c2d[e];
                if (v < 0) {
                    sign = -sign;
                }
                double a = std::fabs(v);
                if (a < min1) {
                    min2 = min1;
                    min1 = a;
                    argmin = e;
                } else if (a < min2) {
                    min2 = a;
                }
            }
            for (uint32_t e : edges) {
                double mag = (e == argmin) ? min2 : min1;
                int s = sign;
                if (msg_c2d[e] < 0) {
                    s = -s;
                }
                msg_d2c[e] = opts_.scale * s * mag;
            }
        }
        // Column -> detector, posterior, hard decision.
        for (std::size_t c = 0; c < ne; ++c) {
            double total = t.prior[c];
            for (uint32_t e = t.colBegin[c]; e < t.colBegin[c + 1]; ++e) {
                total += msg_d2c[e];
            }
            posterior[c] = total;
            hard[c] = total < 0;
            for (uint32_t e = t.colBegin[c]; e < t.colBegin[c + 1]; ++e) {
                msg_c2d[e] = total - msg_d2c[e];
            }
        }
        std::size_t mismatches = syndrome_mismatches();
        converged = mismatches == 0;
        if (!converged && opts_.stagnationWindow != 0) {
            if (mismatches < best) {
                best = mismatches;
                since_best = 0;
            } else if (++since_best >= opts_.stagnationWindow) {
                break; // BP stagnated; hand the posteriors to OSD.
            }
        }
    }

    uint64_t result = 0;
    if (converged) {
        for (std::size_t c = 0; c < ne; ++c) {
            if (hard[c]) {
                result ^= t.colObs[c];
            }
        }
        return result;
    }

    // OSD-0: process columns in decreasing error likelihood (ascending
    // posterior LLR) and solve H x = s by incremental elimination on column
    // vectors over the detectors.
    std::vector<uint32_t> order(ne);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        // Tie-break by column id, as in osdSolve: every elimination path
        // must pick the same pivot order under tied posteriors.
        if (posterior[a] != posterior[b]) {
            return posterior[a] < posterior[b];
        }
        return a < b;
    });

    std::size_t words = (nd + 63) / 64;
    std::vector<uint64_t> s_vec(words, 0);
    for (std::size_t d = 0; d < nd; ++d) {
        if (syn[d]) {
            s_vec[d >> 6] |= uint64_t{1} << (d & 63);
        }
    }
    struct Pivot
    {
        std::size_t row;
        std::vector<uint64_t> col;
        std::vector<uint32_t> members; ///< original columns XORed in
    };
    std::vector<Pivot> pivots;
    std::vector<uint8_t> sol_uses(ne, 0);
    bool solved = false;
    // Reduce the syndrome as we go; solution = pivots whose row bit is set
    // in the (running) reduced syndrome.
    for (uint32_t oc : order) {
        // Build the column vector.
        std::vector<uint64_t> col(words, 0);
        for (uint32_t e = t.colBegin[oc]; e < t.colBegin[oc + 1]; ++e) {
            uint32_t d = edge_det[e];
            col[d >> 6] |= uint64_t{1} << (d & 63);
        }
        std::vector<uint32_t> members{oc};
        for (const Pivot &p : pivots) {
            if ((col[p.row >> 6] >> (p.row & 63)) & 1) {
                for (std::size_t w = 0; w < words; ++w) {
                    col[w] ^= p.col[w];
                }
                for (uint32_t mc : p.members) {
                    members.push_back(mc);
                }
            }
        }
        std::size_t row = nd;
        for (std::size_t w = 0; w < words && row == nd; ++w) {
            if (col[w]) {
                row = (w << 6) + std::countr_zero(col[w]);
            }
        }
        if (row == nd) {
            continue; // dependent column
        }
        pivots.push_back({row, std::move(col), std::move(members)});
        // Check if the syndrome is now explainable.
        std::vector<uint64_t> r = s_vec;
        std::vector<uint8_t> use(pivots.size(), 0);
        for (std::size_t pi = 0; pi < pivots.size(); ++pi) {
            const Pivot &p = pivots[pi];
            if ((r[p.row >> 6] >> (p.row & 63)) & 1) {
                for (std::size_t w = 0; w < words; ++w) {
                    r[w] ^= p.col[w];
                }
                use[pi] = 1;
            }
        }
        bool zero = true;
        for (uint64_t w : r) {
            if (w) {
                zero = false;
                break;
            }
        }
        if (zero) {
            for (std::size_t pi = 0; pi < pivots.size(); ++pi) {
                if (use[pi]) {
                    for (uint32_t mc : pivots[pi].members) {
                        sol_uses[mc] ^= 1;
                    }
                }
            }
            solved = true;
            break;
        }
    }
    if (!solved) {
        return 0; // The syndrome lies outside the column span.
    }
    for (std::size_t c = 0; c < ne; ++c) {
        if (sol_uses[c]) {
            result ^= t.colObs[c];
        }
    }
    return result;
}

bool
BpOsdDecoder::osdPostPass(const std::vector<uint32_t> &cols,
                          const std::vector<double> &post,
                          const std::vector<uint32_t> &flipped, bool packed,
                          std::vector<uint8_t> &uses)
{
    bool solved = osdSolve(cols, post.data(), flipped, packed);
    uses = solUses_; // all-zero unless solved
    return solved;
}

} // namespace prophunt::decoder

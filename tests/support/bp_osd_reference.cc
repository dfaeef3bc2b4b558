#include "support/bp_osd_reference.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <numeric>

namespace prophunt::oracles {

namespace {

// The lazy ranking and its posterior keys, as in bp_osd.cc.
constexpr std::size_t kOsdPrefix = 32;
constexpr std::size_t kOsdGrowth = 4;

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

LowWeightReference::LowWeightReference(const Tanner &t) : t_(t)
{
    for (uint32_t c = 0; c < t.numCols(); ++c) {
        std::vector<uint32_t> sig(t.colDet.begin() + t.colBegin[c],
                                  t.colDet.begin() + t.colBegin[c + 1]);
        if (!sig.empty()) {
            bySig_[sig].push_back(c);
        }
    }
    for (auto &entry : bySig_) {
        std::stable_sort(entry.second.begin(), entry.second.end(),
                         [&](uint32_t a, uint32_t b) {
                             return t.prior[a] < t.prior[b];
                         });
    }
}

bool
LowWeightReference::resolve(const std::vector<uint32_t> &flipped,
                            uint64_t &out) const
{
    out = 0;
    if (flipped.empty()) {
        return true;
    }
    for (uint32_t d : flipped) {
        if (t_.detBegin[d + 1] == t_.detBegin[d]) {
            return true; // Unexplainable: decodes to 0.
        }
    }
    auto single = bySig_.find(flipped);
    if (single != bySig_.end()) {
        out = t_.colObs[single->second.front()];
        return true;
    }
    // Every pair explaining the syndrome has exactly one column on its
    // first detector.
    std::vector<uint64_t> masks;
    std::vector<uint32_t> rest;
    uint32_t d = flipped.front();
    for (uint32_t slot = t_.detBegin[d]; slot < t_.detBegin[d + 1]; ++slot) {
        uint32_t a = t_.detCol[slot];
        rest.clear();
        std::set_symmetric_difference(
            flipped.begin(), flipped.end(), t_.colDet.begin() + t_.colBegin[a],
            t_.colDet.begin() + t_.colBegin[a + 1], std::back_inserter(rest));
        auto hit = bySig_.find(rest);
        if (hit == bySig_.end()) {
            continue;
        }
        for (uint32_t b : hit->second) {
            masks.push_back(t_.colObs[a] ^ t_.colObs[b]);
        }
    }
    if (masks.empty() ||
        std::count(masks.begin(), masks.end(), masks[0]) !=
            (std::ptrdiff_t)masks.size()) {
        return false;
    }
    out = masks[0];
    return true;
}

ReferenceBp
referenceBp(const Tanner &t, const decoder::BpOsdOptions &opts,
            const std::vector<uint32_t> &flipped_detectors)
{
    std::size_t nd = t.detBegin.size() - 1, ne = t.numCols();
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
    for (std::size_t it = 0; it < opts.maxIterations && !converged; ++it) {
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
                msg_d2c[e] = opts.scale * s * mag;
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
        if (!converged && opts.stagnationWindow != 0) {
            if (mismatches < best) {
                best = mismatches;
                since_best = 0;
            } else if (++since_best >= opts.stagnationWindow) {
                break; // BP stagnated; hand the posteriors to OSD.
            }
        }
    }
    return {converged, std::move(posterior)};
}

uint64_t
decodeReference(const Tanner &t, const LowWeightReference &low,
                const decoder::BpOsdOptions &opts,
                const std::vector<uint32_t> &flipped_detectors)
{
    uint64_t result = 0;
    if (low.resolve(flipped_detectors, result)) {
        return result;
    }
    std::size_t nd = t.detBegin.size() - 1, ne = t.numCols();
    ReferenceBp bp = referenceBp(t, opts, flipped_detectors);
    const std::vector<double> &posterior = bp.posterior;

    if (bp.converged) {
        // The hard decision of a column is posterior < 0.
        for (std::size_t c = 0; c < ne; ++c) {
            if (posterior[c] < 0) {
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
        // Tie-break by column id, as in BpOsdDecoder::osdSolve: every
        // elimination must pick the same pivot order under tied
        // posteriors.
        if (posterior[a] != posterior[b]) {
            return posterior[a] < posterior[b];
        }
        return a < b;
    });

    std::size_t words = (nd + 63) / 64;
    std::vector<uint64_t> s_vec(words, 0);
    for (uint32_t d : flipped_detectors) {
        s_vec[d >> 6] |= uint64_t{1} << (d & 63);
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
            uint32_t d = t.colDet[e];
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

std::vector<OsdJob>
referenceOsdJobs(const Tanner &t, const LowWeightReference &low,
                 const decoder::BpOsdOptions &opts,
                 const sim::SampleBatch &rows)
{
    std::vector<OsdJob> jobs;
    std::vector<uint32_t> flipped;
    for (std::size_t s = 0; s < rows.shots; ++s) {
        rows.flippedDetectors(s, flipped);
        uint64_t resolved = 0;
        if (low.resolve(flipped, resolved)) {
            continue;
        }
        ReferenceBp bp = referenceBp(t, opts, flipped);
        if (!bp.converged) {
            jobs.push_back({s, flipped, std::move(bp.posterior)});
        }
    }
    return jobs;
}

bool
ScalarOsd::solve(const std::vector<double> &post,
                 const std::vector<uint32_t> &flipped,
                 std::vector<uint32_t> &solution)
{
    std::size_t ne = t_.numCols();
    osdKeys_.resize(ne);
    for (std::size_t c = 0; c < ne; ++c) {
        osdKeys_[c] = {osdPostKey(post[c]), (uint32_t)c};
    }
    osdSortedPrefix_ = 0;
    osdSortMore();
    solUses_.assign(ne, 0);
    bool solved = osdSolveScalar(flipped);
    solution.clear();
    for (std::size_t c = 0; c < ne; ++c) {
        if (solUses_[c]) {
            solution.push_back((uint32_t)c);
        }
    }
    return solved;
}

void
ScalarOsd::osdSortMore()
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
ScalarOsd::osdSolveScalar(const std::vector<uint32_t> &flipped)
{
    std::size_t ne = t_.numCols(), nd = t_.detBegin.size() - 1;
    std::size_t words = t_.colBits.rowWords();
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
        uint32_t oc = osdKeys_[oi].second;
        const uint64_t *packedCol = t_.colBits.row(oc);
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

} // namespace prophunt::oracles

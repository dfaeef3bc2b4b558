#include "decoder/bp_osd.h"

#include <bit>
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

namespace prophunt::decoder {

namespace {

/**
 * Elimination usually terminates within a few dozen columns, so the
 * posterior ranking is built lazily. A threshold filter first keeps the
 * columns whose posterior is at most tau, the kOsdSampleRank-th smallest
 * of about kOsdSample strided columns (about kOsdSampleRank / kOsdSample
 * of the columns), and keys only those. They are ranked in chunks: first
 * kOsdPrefix columns, then chunks kOsdGrowth times larger. If the
 * elimination outruns them, the rest are keyed and ranked on. The
 * (posterior, column id) keys are a strict total order and every
 * posterior equal to tau is kept, so each stage is a prefix of that order
 * and the pivot sequence equals a full sort's.
 */
constexpr std::size_t kOsdPrefix = 32;
constexpr std::size_t kOsdGrowth = 4;
constexpr std::size_t kOsdSample = 256;
constexpr std::size_t kOsdSampleRank = 8;

/**
 * Map a posterior to a uint32 whose integer order equals float order.
 * -0.0f is collapsed onto +0.0f first so key equality matches float
 * equality exactly — the column-id tie-break must fire for the same
 * pairs as a (post, col) comparator would. Finite and infinite values
 * order correctly; posteriors are never NaN.
 */
inline uint32_t
osdPostKey(float v)
{
    if (v == 0.0f) {
        v = 0.0f;
    }
    uint32_t b = std::bit_cast<uint32_t>(v);
    return (b & (uint32_t{1} << 31)) != 0 ? ~b : (b | (uint32_t{1} << 31));
}

/** The ranking record of column @p col with posterior @p v: key in the
 * high half, column id in the low half. */
inline uint64_t
osdRecord(float v, uint32_t col)
{
    return (uint64_t)osdPostKey(v) << 32 | col;
}

/** @p scale rounded to float, or std::invalid_argument when that is not
 * a positive factor whose product with the min-sum start value stays
 * finite. */
float
checkedScale(double scale)
{
    float s = (float)scale;
    if (!(s > 0.0f) || !std::isfinite(s * BpOsdDecoder::kMinInit)) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", scale);
        throw std::invalid_argument(
            std::string("bp_osd: scale ") + buf +
            " is not a positive float whose product with 1e30 is finite");
    }
    return s;
}

/** SplitMix64: the fixed sequence the detectors' Zobrist keys come
 * from. */
inline uint64_t
splitMix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Fill the low-weight stage's Zobrist keys, column hashes and
 * signature table of @p t from its CSR. */
void
buildSignatureTable(BpOsdDecoder::Tanner &t)
{
    std::size_t ne = t.numCols();
    uint64_t state = 0x5eed;
    t.detKey.resize(t.detBegin.size() - 1);
    for (uint64_t &key : t.detKey) {
        key = splitMix64(state);
    }
    t.colHash.assign(ne, 0);
    for (std::size_t c = 0; c < ne; ++c) {
        for (uint32_t e = t.colBegin[c]; e < t.colBegin[c + 1]; ++e) {
            t.colHash[c] ^= t.detKey[t.colDet[e]];
        }
    }
    // Group the columns with detectors by hash, likeliest first.
    t.sigCols.clear();
    for (std::size_t c = 0; c < ne; ++c) {
        if (t.colBegin[c + 1] != t.colBegin[c]) {
            t.sigCols.push_back((uint32_t)c);
        }
    }
    std::sort(t.sigCols.begin(), t.sigCols.end(), [&](uint32_t a, uint32_t b) {
        if (t.colHash[a] != t.colHash[b]) {
            return t.colHash[a] < t.colHash[b];
        }
        return t.prior[a] != t.prior[b] ? t.prior[a] < t.prior[b] : a < b;
    });
    std::size_t groups = 0;
    for (std::size_t i = 0; i < t.sigCols.size(); ++i) {
        groups += i == 0 || t.colHash[t.sigCols[i]] !=
                                t.colHash[t.sigCols[i - 1]];
    }
    // At most half full, so a miss ends within a few entries.
    std::size_t size = std::bit_ceil(2 * groups + 1);
    t.sigTable.assign(size, {});
    for (std::size_t i = 0; i < t.sigCols.size();) {
        uint64_t h = t.colHash[t.sigCols[i]];
        std::size_t j = i + 1;
        while (j < t.sigCols.size() && t.colHash[t.sigCols[j]] == h) {
            ++j;
        }
        std::size_t k = h & (size - 1);
        while (t.sigTable[k].begin != t.sigTable[k].end) {
            k = (k + 1) & (size - 1);
        }
        t.sigTable[k] = {h, (uint32_t)i, (uint32_t)j};
        i = j;
    }
}

/** The group of columns of @p t whose detector-set hash is @p h (empty
 * when there is none). A hit is a candidate: its detector list still
 * has to be compared. */
std::pair<const uint32_t *, const uint32_t *>
sigFind(const BpOsdDecoder::Tanner &t, uint64_t h)
{
    std::size_t mask = t.sigTable.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        const BpOsdDecoder::Tanner::SigEntry &e = t.sigTable[i];
        if (e.begin == e.end || e.hash == h) {
            return {t.sigCols.data() + e.begin, t.sigCols.data() + e.end};
        }
    }
}

/** Whether the detector sets of columns @p a and @p b, each ascending,
 * XOR to the ascending syndrome [@p first, @p last): one merge walk. */
bool
pairExplains(const BpOsdDecoder::Tanner &t, uint32_t a, uint32_t b,
             const uint32_t *first, const uint32_t *last)
{
    const uint32_t *x = t.colDet.data() + t.colBegin[a];
    const uint32_t *xEnd = t.colDet.data() + t.colBegin[a + 1];
    const uint32_t *y = t.colDet.data() + t.colBegin[b];
    const uint32_t *yEnd = t.colDet.data() + t.colBegin[b + 1];
    while (x != xEnd || y != yEnd) {
        uint32_t d;
        if (y == yEnd || (x != xEnd && *x < *y)) {
            d = *x++;
        } else if (x == xEnd || *y < *x) {
            d = *y++;
        } else {
            ++x; // On both columns: cancels.
            ++y;
            continue;
        }
        if (first == last || *first++ != d) {
            return false;
        }
    }
    return first == last;
}

} // namespace


std::shared_ptr<const BpOsdDecoder::Tanner>
BpOsdDecoder::buildTanner(const sim::Dem &dem)
{
    auto t = std::make_shared<Tanner>();
    std::size_t numDetectors = dem.numDetectors;
    std::size_t ne = dem.errors.size();
    // Flatten the Tanner graph once: edge e of column c occupies slots
    // colBegin[c]..colBegin[c+1]. Detector d's slots detBegin[d]..
    // detBegin[d+1] list the same edges in (column, slot) order — the
    // traversal order every per-shot pass reuses.
    t->colBegin.assign(ne + 1, 0);
    for (std::size_t e = 0; e < ne; ++e) {
        const auto &mech = dem.errors[e];
        uint64_t obs = 0;
        for (uint32_t o : mech.observables) {
            obs |= uint64_t{1} << o;
        }
        t->colObs.push_back(obs);
        double p = std::clamp(mech.p, 1e-12, 0.5 - 1e-12);
        t->prior.push_back((float)std::log((1.0 - p) / p));
        t->colBegin[e + 1] = t->colBegin[e] + (uint32_t)mech.detectors.size();
        for (uint32_t d : mech.detectors) {
            t->colDet.push_back(d);
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
    t->detCol.resize(edges);
    t->edgeSlot.resize(edges);
    {
        std::vector<uint32_t> fill(t->detBegin.begin(),
                                   t->detBegin.end() - 1);
        for (std::size_t c = 0; c < ne; ++c) {
            for (uint32_t e = t->colBegin[c]; e < t->colBegin[c + 1]; ++e) {
                uint32_t slot = fill[t->colDet[e]]++;
                t->detCol[slot] = (uint32_t)c;
                t->edgeSlot[e] = slot;
            }
        }
    }
    t->colBits.reset(ne, numDetectors);
    for (std::size_t c = 0; c < ne; ++c) {
        for (uint32_t e = t->colBegin[c]; e < t->colBegin[c + 1]; ++e) {
            t->colBits.set(c, t->colDet[e]);
        }
    }
    buildSignatureTable(*t);
    return t;
}

BpOsdDecoder::BpOsdDecoder(const sim::Dem &dem, BpOsdOptions opts)
    : opts_(opts), scale_(checkedScale(opts.scale)),
      numDetectors_(dem.numDetectors), tanner_(buildTanner(dem))
{
}

bool
BpOsdDecoder::decodeTrivial(const uint32_t *first, const uint32_t *last,
                            uint64_t &out, PackedDecodeStats *stats) const
{
    const Tanner &t = *tanner_;
    out = 0;
    if (first == last) {
        return true;
    }
    uint64_t h = 0;
    uint32_t d0 = 0, deg0 = std::numeric_limits<uint32_t>::max();
    for (const uint32_t *d = first; d != last; ++d) {
        uint32_t deg = t.detBegin[*d + 1] - t.detBegin[*d];
        if (deg == 0) {
            return true; // No column can explain this detector.
        }
        if (deg < deg0) {
            d0 = *d;
            deg0 = deg;
        }
        h ^= t.detKey[*d];
    }
    // Weight 1: a syndrome exactly matching one mechanism is
    // overwhelmingly most likely explained by it (p >> p^2). Each group
    // lists the likeliest column of a detector set first.
    auto [hit, hitEnd] = sigFind(t, h);
    for (; hit != hitEnd; ++hit) {
        const uint32_t *det = t.colDet.data() + t.colBegin[*hit];
        const uint32_t *detEnd = t.colDet.data() + t.colBegin[*hit + 1];
        if (std::equal(det, detEnd, first, last)) {
            out = t.colObs[*hit];
            return true;
        }
    }
    // Weight 2: the pair's column on d0 is a, its other column has the
    // hash h ^ hash(a).
    bool found = false;
    uint64_t mask = 0;
    for (uint32_t slot = t.detBegin[d0]; slot < t.detBegin[d0 + 1]; ++slot) {
        uint32_t a = t.detCol[slot];
        auto [b, bEnd] = sigFind(t, h ^ t.colHash[a]);
        for (; b != bEnd; ++b) {
            if (!pairExplains(t, a, *b, first, last)) {
                continue;
            }
            uint64_t m = t.colObs[a] ^ t.colObs[*b];
            if (found && m != mask) {
                return false; // Explanations disagree: BP decides.
            }
            found = true;
            mask = m;
        }
    }
    if (!found) {
        return false;
    }
    out = mask;
    if (stats != nullptr) {
        ++stats->lowWeightShots;
    }
    return true;
}

bool
BpOsdDecoder::osdSolve(const std::vector<float> &post,
                       const std::vector<uint32_t> &flipped,
                       std::vector<uint32_t> &solution)
{
    // OSD-0: process columns in decreasing error likelihood (ascending
    // posterior LLR) and solve H x = s by incremental elimination on the
    // shared packed columns. Ties are broken by column id: the pivot
    // order must not depend on the ranking strategy (threshold filter,
    // lazy prefix or full sort) even when posteriors collide exactly
    // (duplicated priors make that common, not hypothetical). The
    // ranking runs on flat OsdKey records — the indirect float
    // comparator, not the elimination, used to dominate the post-pass
    // on large graphs.
    std::size_t ne = tanner_->numCols();
    osdRank(post);
    elim_.begin(numDetectors_);
    for (uint32_t d : flipped) {
        elim_.setSyndromeBit(d);
    }
    for (std::size_t oi = 0; oi < ne; ++oi) {
        if (oi == osdSortedPrefix_) {
            osdSortMore(post);
        }
        if (elim_.push(tanner_->colBits.row((uint32_t)osdKeys_[oi]))) {
            // Push index i is key i: the lazy sort never moves a key it
            // has already handed out.
            elim_.solution(solution);
            for (uint32_t &idx : solution) {
                idx = (uint32_t)osdKeys_[idx];
            }
            return true;
        }
    }
    solution.clear();
    return false;
}

void
BpOsdDecoder::osdRank(const std::vector<float> &post)
{
    std::size_t ne = tanner_->numCols();
    // Up to kOsdPrefix columns the first chunk is every column, and the
    // sample could hold fewer than kOsdSampleRank entries: keep them all.
    osdTau_ = std::numeric_limits<float>::infinity();
    if (ne > kOsdPrefix) {
        std::size_t stride = std::max<std::size_t>(1, ne / kOsdSample);
        osdSample_.clear();
        for (std::size_t c = 0; c < ne; c += stride) {
            osdSample_.push_back(post[c]);
        }
        auto nth = osdSample_.begin() + (kOsdSampleRank - 1);
        std::nth_element(osdSample_.begin(), nth, osdSample_.end());
        osdTau_ = *nth;
    }
    // Branchless: every column is written, only kept ones advance.
    // <= keeps every tie at tau, and +0.0f and -0.0f compare equal.
    osdKeys_.resize(ne);
    std::size_t kept = 0;
    for (std::size_t c = 0; c < ne; ++c) {
        osdKeys_[kept] = c;
        kept += post[c] <= osdTau_;
    }
    osdKeys_.resize(kept);
    for (OsdKey &k : osdKeys_) {
        k = osdRecord(post[k], (uint32_t)k);
    }
    osdSortedPrefix_ = 0;
}

void
BpOsdDecoder::osdSortMore(const std::vector<float> &post)
{
    std::size_t ne = tanner_->numCols();
    std::size_t from = osdSortedPrefix_;
    if (from == osdKeys_.size() && from < ne) {
        // The kept columns are used up: key the ones the filter left
        // out (posterior above tau) and rank on among them.
        for (std::size_t c = 0; c < ne; ++c) {
            if (post[c] > osdTau_) {
                osdKeys_.push_back(osdRecord(post[c], (uint32_t)c));
            }
        }
    }
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
    if (decodeTrivial(flipped_detectors.data(),
                      flipped_detectors.data() + flipped_detectors.size(),
                      out, nullptr)) {
        return out;
    }
    const uint32_t offsets[2] = {0, (uint32_t)flipped_detectors.size()};
    laneQueue_.assign(1, 0);
    laneRun(flipped_detectors.data(), offsets, &out, nullptr);
    return out;
}

} // namespace prophunt::decoder

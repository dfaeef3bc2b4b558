/**
 * @file
 * Lane-batched SIMD BP engine behind BpOsdDecoder::decode and
 * decodePacked.
 *
 * The engine runs min-sum BP for 8 shots in parallel "lanes" over the
 * global Tanner CSR built once per DEM. It is the decoder's only BP:
 * decodePacked feeds it the shots of a frame shard that the low-weight
 * stage (decodeTrivial) does not resolve, decode() a single shot.
 *
 * No per-edge message is stored. A min-sum detector->column message is
 * fully determined by its detector's two smallest input magnitudes, the
 * slot that held the smallest, the product of the input signs (with the
 * syndrome bit), and the sign of the slot's own input. So each detector
 * keeps one record per lane (scale*min1, scale*min2, argmin slot, sign
 * product), and each slot, in detector order, one sign byte (bit l =
 * lane l). The detector pass is one walk over each detector's slots: it
 * rebuilds the message it sent the slot's column last iteration from the
 * old record and sign byte, takes the column->detector value as the
 * column's posterior minus that message (the same IEEE subtraction the
 * column pass of a stored-message engine performs), and folds it into
 * the new record. The column pass sums the rebuilt messages of each
 * column in edge order onto the prior and writes the posterior and the
 * hard decision. Per clone the state is 32 doubles per detector, one
 * byte per edge and 8 doubles per column.
 *
 * Each pass is ONE body, written with GCC vector extensions over V-lane
 * vectors, that walks the 8 lanes as 8/V chunks from contiguous loads (no
 * gathers). laneIterate instantiates it at the host's native width: V = 8
 * on AVX-512, V = 4 on AVX2, and V = 2 on the baseline ISA (SSE2 on x86,
 * NEON on AArch64), so every build runs a vectorized kernel.
 * PROPHUNT_NO_AVX512 / PROPHUNT_NO_AVX2 step the width down explicitly;
 * all three widths produce the same bits.
 *
 * Lanes carry no per-shot state initialization: the detector pass
 * substitutes the column prior for a lane's input on its first
 * iteration, when no column pass has run for it yet. Records, sign bits
 * and posteriors of a lane without a live shot hold garbage that nobody
 * reads — live lanes' results never depend on them, since every pass
 * reads only the lane's own elements. Both passes walk every detector
 * and column in index order. Lanes retire individually (convergence,
 * stagnation, or the iteration budget) and are refilled from the shot
 * queue, so iteration skew between easy and hard syndromes no longer
 * serializes the batch.
 *
 * Retired-but-unconverged lanes do not solve OSD inline: they compact
 * into a batched work queue (shot id, syndrome, posterior snapshot) that
 * is flushed in one pass, so the post-pass runs out of hot scratch
 * instead of interleaving with lane state. Each job's solve is
 * independent, so the queueing changes throughput only. Every job goes
 * through osdSolve, the decoder's one OSD-0; it is public so that the
 * OSD differential tests can check it alone.
 *
 * Exactness: every per-lane recurrence reproduces the arithmetic of the
 * reference decoder in tests/support/ operation for operation (same
 * edge order in the sums, same strict-minimum updates, no FMA
 * contraction: no product feeds a sum), a rebuilt message equals the
 * one the reference stores bit for bit, the per-lane stopping rules
 * are the reference ones, and non-converged lanes hand their
 * posteriors to the OSD-0 post-pass (osdSolve) — so decodePacked,
 * decode() and the reference agree bit for bit, and a shot's result
 * never depends on which shots share its lanes (shot-order
 * invariance). V only sets how many lanes one instruction
 * carries: every lane select is a bitwise blend and every lane's
 * arithmetic is the same IEEE operation at every width, so the widths
 * cannot disagree. Sign handling is integer bit manipulation (sign(x)
 * as the IEEE sign bit), which matches the scalar `v < 0.0` test because
 * effective column -> detector values are never -0.0: priors are
 * positive, and a sum or difference of doubles only produces -0.0 from
 * two negative zeros.
 */
#include "decoder/bp_osd.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define PROPHUNT_LANES_X86 1
#endif

namespace prophunt::decoder {

namespace {

/** Shots decoded in parallel: one AVX-512 vector of doubles, walked as
 * 8/V chunks by narrower instantiations. */
constexpr std::size_t kLanes = 8;

/** The reference decoder's two-minimum initialization. */
constexpr double kMinInit = 1e300;

/**
 * Flush the batched OSD queue once this many retired-unconverged shots
 * have accumulated (and always at the end of a lane run).
 * Large enough to keep the elimination scratch hot across many solves,
 * small enough to bound the queued posterior snapshots (each is one
 * double per column).
 */
constexpr std::size_t kOsdFlushCap = 128;

/** Raw pointers of one lane BP iteration, hoisted out of the decoder so
 * the passes compile inside each per-ISA function. */
struct LaneCtx
{
    std::size_t numDetectors = 0;
    std::size_t numCols = 0;
    double scale = 0.0;
    /** Bit l: lane l holds a live shot. */
    uint32_t liveLanes = 0;
    /** Bit l: lane l is on its first iteration (column->detector values
     * still read as the column prior; no column pass has run for it
     * yet). */
    uint32_t freshLanes = 0;
    const uint32_t *colBegin = nullptr;
    const uint32_t *colDet = nullptr;
    const uint32_t *edgeSlot = nullptr;
    const uint32_t *detBegin = nullptr;
    const uint32_t *detCol = nullptr;
    const double *prior = nullptr;
    double *check = nullptr;
    uint8_t *sign = nullptr;
    double *post = nullptr;
    const double *synSign = nullptr;
    const uint8_t *synB = nullptr;
    uint8_t *acc = nullptr;
    uint32_t *hardBits = nullptr;
    std::ptrdiff_t *mismatch = nullptr;
};

/** Doubles per detector in LaneCtx::check: kLanes each of scale*min1,
 * scale*min2, argmin slot and sign product, in that order. */
constexpr std::size_t kCheckStride = 4 * kLanes;

/** Vectors of V lanes' doubles (D) and of their bit patterns (I), and
 * the unaligned, aliasing view (Slot) through which V consecutive
 * doubles of a lane-interleaved array are loaded and stored. Spelled out
 * per width: GCC 12 drops a vector_size that depends on a template
 * parameter. */
template <std::size_t V>
struct LaneVec;

template <>
struct LaneVec<8>
{
    typedef double D __attribute__((vector_size(64)));
    typedef int64_t I __attribute__((vector_size(64)));
    typedef double Slot
        __attribute__((vector_size(64), aligned(8), may_alias));
};

template <>
struct LaneVec<4>
{
    typedef double D __attribute__((vector_size(32)));
    typedef int64_t I __attribute__((vector_size(32)));
    typedef double Slot
        __attribute__((vector_size(32), aligned(8), may_alias));
};

template <>
struct LaneVec<2>
{
    typedef double D __attribute__((vector_size(16)));
    typedef int64_t I __attribute__((vector_size(16)));
    typedef double Slot
        __attribute__((vector_size(16), aligned(8), may_alias));
};

/*
 * Both passes interleave their kLanes / V chunks inside each edge walk,
 * so the chunks' independent min chains hide the select latency. Lanes
 * with no live shot produce garbage nobody reads. The passes are always
 * inlined into a per-ISA caller, which picks the instructions V lowers
 * to; no vector crosses a function boundary, whose ABI would depend on
 * the ISA (-Wpsabi).
 *
 * `x - D{}` broadcasts x: x - 0.0 == x for every x, -0.0 included, so it
 * folds to a plain broadcast (0.0 + x would not: it maps -0.0 to +0.0).
 */

/** Chunk k's lane bits: element j is 1 << (k*V + j). */
template <std::size_t V>
[[gnu::always_inline]] inline void
laneBits(typename LaneVec<V>::I (&bit)[kLanes / V])
{
    for (std::size_t k = 0; k < kLanes / V; ++k) {
        for (std::size_t j = 0; j < V; ++j) {
            bit[k][j] = int64_t{1} << (k * V + j);
        }
    }
}

/** OR the elements of @p v into one word by halving the vector: log2(V)
 * shuffles instead of V element extractions. */
template <std::size_t V>
[[gnu::always_inline]] inline uint32_t
orLanes(const typename LaneVec<V>::I &v)
{
    typename LaneVec<2>::I pair;
    if constexpr (V == 2) {
        pair = v;
    } else if constexpr (V == 4) {
        pair = __builtin_shufflevector(v, v, 0, 1) |
               __builtin_shufflevector(v, v, 2, 3);
    } else {
        auto half = __builtin_shufflevector(v, v, 0, 1, 2, 3) |
                    __builtin_shufflevector(v, v, 4, 5, 6, 7);
        pair = __builtin_shufflevector(half, half, 0, 1) |
               __builtin_shufflevector(half, half, 2, 3);
    }
    return (uint32_t)(pair[0] | pair[1]);
}

/**
 * The detector->column message of slot @p idx for chunk k, into @p msg,
 * from its detector's record @p rec and the slot's sign byte (broadcast
 * in @p bits): magnitude m2 at the argmin slot and m1 elsewhere, sign the
 * detector's sign product without the slot's own input sign. mag >= 0,
 * so OR-ing the sign bit equals the scalar ±mag selection bit for bit
 * (including ±0.0).
 */
template <std::size_t V>
[[gnu::always_inline]] inline void
checkMessage(typename LaneVec<V>::D &msg, const double *rec, std::size_t k,
             const typename LaneVec<V>::D &idx,
             const typename LaneVec<V>::I &bits,
             const typename LaneVec<V>::I &laneBit)
{
    using D = typename LaneVec<V>::D;
    using I = typename LaneVec<V>::I;
    using Slot = typename LaneVec<V>::Slot;
    constexpr std::size_t W = kLanes;
    const D m1 = *(const Slot *)(rec + k * V);
    const D m2 = *(const Slot *)(rec + W + k * V);
    const D arg = *(const Slot *)(rec + 2 * W + k * V);
    const I sign = (I) * (const Slot *)(rec + 3 * W + k * V);
    const I inSign = ((bits & laneBit) != 0) & INT64_MIN;
    D mag = idx == arg ? m2 : m1;
    msg = (D)((I)mag | (sign ^ inSign));
}

/**
 * Detector -> column pass: the min-sum two-minimum reduction of every
 * detector, for all 8 lanes, in one walk over its slots. A slot's
 * column->detector value is the column's posterior minus the message
 * this detector sent it last iteration, rebuilt from the detector's
 * record before the walk overwrites it.
 */
template <std::size_t V>
[[gnu::always_inline]] inline void
detPass(const LaneCtx &cx)
{
    using D = typename LaneVec<V>::D;
    using I = typename LaneVec<V>::I;
    using Slot = typename LaneVec<V>::Slot;
    constexpr std::size_t NC = kLanes / V;
    constexpr std::size_t W = kLanes;
    const I signMask = I{} + INT64_MIN;
    const D minInit = kMinInit - D{};
    I fresh[NC], laneBit[NC];
    laneBits<V>(laneBit);
    for (std::size_t k = 0; k < NC; ++k) {
        fresh[k] = ((I{} + (int64_t)cx.freshLanes) & laneBit[k]) != 0;
    }
    for (std::size_t d = 0; d < cx.numDetectors; ++d) {
        uint32_t b = cx.detBegin[d], en = cx.detBegin[d + 1];
        double *rec = cx.check + d * kCheckStride;
        // The old record stays in memory until the walk is done: every
        // slot's old message is rebuilt from it.
        I signAcc[NC];
        D min1[NC], min2[NC], argpos[NC];
        for (std::size_t k = 0; k < NC; ++k) {
            D syn = *(const Slot *)(cx.synSign + d * W + k * V);
            signAcc[k] = (I)syn;
            min1[k] = minInit;
            min2[k] = minInit;
            argpos[k] = -1.0 - D{};
        }
        for (uint32_t s = b; s < en; ++s) {
            std::size_t c = cx.detCol[s];
            const D prior = cx.prior[c] - D{};
            const D idx = (double)s - D{};
            const I bits = I{} + (int64_t)cx.sign[s];
            I neg = I{};
            for (std::size_t k = 0; k < NC; ++k) {
                D old;
                checkMessage<V>(old, rec, k, idx, bits, laneBit[k]);
                D v = *(const Slot *)(cx.post + c * W + k * V) - old;
                // Prior on the lane's first iteration.
                v = fresh[k] ? prior : v;
                I vi = (I)v;
                neg |= (vi < 0) & laneBit[k];
                signAcc[k] ^= vi & signMask;
                D a = (D)(vi & ~signMask);
                I lt1 = a < min1[k];
                I lt2 = a < min2[k];
                min2[k] = lt1 ? min1[k] : lt2 ? a : min2[k];
                min1[k] = lt1 ? a : min1[k];
                argpos[k] = lt1 ? idx : argpos[k];
            }
            cx.sign[s] = (uint8_t)orLanes<V>(neg);
        }
        for (std::size_t k = 0; k < NC; ++k) {
            *(Slot *)(rec + k * V) = cx.scale * min1[k];
            *(Slot *)(rec + W + k * V) = cx.scale * min2[k];
            *(Slot *)(rec + 2 * W + k * V) = argpos[k];
            *(Slot *)(rec + 3 * W + k * V) = (D)signAcc[k];
        }
    }
}

/** Column -> detector pass: posterior (prior plus the column's rebuilt
 * detector->column messages in edge order) and hard decision with
 * incremental syndrome-mismatch tracking of every column, for all 8
 * lanes. */
template <std::size_t V>
[[gnu::always_inline]] inline void
colPass(const LaneCtx &cx)
{
    using D = typename LaneVec<V>::D;
    using I = typename LaneVec<V>::I;
    using Slot = typename LaneVec<V>::Slot;
    constexpr std::size_t NC = kLanes / V;
    constexpr std::size_t W = kLanes;
    I laneBit[NC];
    laneBits<V>(laneBit);
    for (std::size_t c = 0; c < cx.numCols; ++c) {
        uint32_t b = cx.colBegin[c], en = cx.colBegin[c + 1];
        // Broadcast element by element: `cx.prior[c] - D{}` compiles to
        // the same broadcast but trips a false -Wmaybe-uninitialized in
        // GCC 12 at V = 4.
        D tot[NC];
        for (std::size_t k = 0; k < NC; ++k) {
            for (std::size_t j = 0; j < V; ++j) {
                tot[k][j] = cx.prior[c];
            }
        }
        for (uint32_t e = b; e < en; ++e) {
            std::size_t s = cx.edgeSlot[e];
            const double *rec = cx.check + cx.colDet[e] * kCheckStride;
            const D idx = (double)s - D{};
            const I bits = I{} + (int64_t)cx.sign[s];
            for (std::size_t k = 0; k < NC; ++k) {
                D msg;
                checkMessage<V>(msg, rec, k, idx, bits, laneBit[k]);
                tot[k] += msg;
            }
        }
        I neg = I{};
        for (std::size_t k = 0; k < NC; ++k) {
            // Unmasked: dead lanes' posteriors are garbage nobody reads
            // (a live lane rewrites its slice every iteration).
            *(Slot *)(cx.post + c * W + k * V) = tot[k];
            neg |= (tot[k] < 0.0) & laneBit[k];
        }
        uint32_t hNow = orLanes<V>(neg) & cx.liveLanes;
        uint32_t changed = hNow ^ cx.hardBits[c];
        if (changed != 0) {
            cx.hardBits[c] ^= changed;
            while (changed != 0) {
                std::size_t l = (std::size_t)std::countr_zero(changed);
                for (uint32_t e = b; e < en; ++e) {
                    std::size_t off = (std::size_t)cx.colDet[e] * W + l;
                    cx.acc[off] ^= 1;
                    cx.mismatch[l] += (cx.acc[off] != cx.synB[off]) ? 1 : -1;
                }
                changed &= changed - 1;
            }
        }
    }
}

#if PROPHUNT_LANES_X86

__attribute__((target("avx512f"))) void
iterateAvx512(const LaneCtx &cx)
{
    detPass<8>(cx);
    colPass<8>(cx);
}

__attribute__((target("avx2"))) void
iterateAvx2(const LaneCtx &cx)
{
    detPass<4>(cx);
    colPass<4>(cx);
}

#endif // PROPHUNT_LANES_X86

/** The baseline ISA's 128-bit vectors: SSE2 on x86, NEON on AArch64. */
void
iterateBaseline(const LaneCtx &cx)
{
    detPass<2>(cx);
    colPass<2>(cx);
}

/** True iff @p name is set to a non-empty value — CI matrix legs pass an
 * empty string on the leg that should keep the native kernels. */
bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && v[0] != '\0';
}

/** Runtime width selection. PROPHUNT_NO_AVX2 forces the V = 2 baseline
 * instantiation — the cross-check the lane tests use on AVX2 hardware. */
bool
laneUseAvx2()
{
#if PROPHUNT_LANES_X86
    return __builtin_cpu_supports("avx2") && !envFlag("PROPHUNT_NO_AVX2");
#else
    return false;
#endif
}

/** PROPHUNT_NO_AVX512 (or PROPHUNT_NO_AVX2) steps down to the V = 4
 * (resp. V = 2) instantiation; all widths are bit-identical. */
bool
laneUseAvx512()
{
#if PROPHUNT_LANES_X86
    return __builtin_cpu_supports("avx512f") &&
           !envFlag("PROPHUNT_NO_AVX512") && !envFlag("PROPHUNT_NO_AVX2");
#else
    return false;
#endif
}

} // namespace

void
BpOsdDecoder::laneEnsure()
{
    std::size_t ne = tanner_->numCols();
    if (laneShot_.size() == kLanes) {
        return;
    }
    laneCheck_.assign(numDetectors_ * kCheckStride, 0.0);
    laneSign_.assign(tanner_->colDet.size(), 0);
    lanePost_.assign(ne * kLanes, 0.0);
    laneHardBits_.assign(ne, 0);
    laneAcc_.assign(numDetectors_ * kLanes, 0);
    laneSynB_.assign(numDetectors_ * kLanes, 0);
    laneSynSign_.assign(numDetectors_ * kLanes, 0.0);
    laneLiveMask_ = 0;
    laneFlipped_.assign(kLanes, {});
    laneShot_.assign(kLanes, 0);
    laneMismatch_.assign(kLanes, 0);
    laneBest_.assign(kLanes, 0);
    laneSinceBest_.assign(kLanes, 0);
    laneIter_.assign(kLanes, 0);
}

void
BpOsdDecoder::laneInstall(std::size_t l, std::size_t shot,
                          const uint32_t *first, const uint32_t *last)
{
    laneFlipped_[l].assign(first, last);
    for (const uint32_t *d = first; d != last; ++d) {
        laneSynB_[(std::size_t)*d * kLanes + l] = 1;
        laneSynSign_[(std::size_t)*d * kLanes + l] = -0.0;
    }
    laneShot_[l] = shot;
    laneLiveMask_ |= uint32_t{1} << l;
    // Hard decisions start all-zero, so every flipped detector mismatches.
    laneMismatch_[l] = last - first;
    laneBest_[l] = laneMismatch_[l];
    laneSinceBest_[l] = 0;
    laneIter_[l] = 0;
}

double *
BpOsdDecoder::osdEnqueue(std::size_t shot, const uint32_t *first,
                         const uint32_t *last)
{
    if (osdQueue_.size() == osdQueueSize_) {
        osdQueue_.emplace_back();
    }
    OsdJob &job = osdQueue_[osdQueueSize_++];
    job.shot = shot;
    job.flipped.assign(first, last);
    job.post.resize(tanner_->numCols());
    return job.post.data();
}

void
BpOsdDecoder::osdFlush(uint64_t *obs_out, PackedDecodeStats *stats)
{
    if (osdQueueSize_ == 0) {
        return;
    }
    auto t0 = std::chrono::steady_clock::now();
    // An unsolvable syndrome lies outside the column span and decodes
    // to 0.
    for (std::size_t k = 0; k < osdQueueSize_; ++k) {
        const OsdJob &job = osdQueue_[k];
        uint64_t result = 0;
        if (osdSolve(job.post, job.flipped, osdSolution_)) {
            for (uint32_t c : osdSolution_) {
                result ^= tanner_->colObs[c];
            }
        }
        obs_out[job.shot] = result;
    }
    if (stats != nullptr) {
        stats->osdShots += osdQueueSize_;
        stats->osdUs += (uint64_t)std::chrono::duration_cast<
                            std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    }
    osdQueueSize_ = 0; // Entries stay allocated for the next flush.
}

void
BpOsdDecoder::laneRetire(std::size_t l, bool converged, uint64_t *obs_out)
{
    constexpr std::size_t W = kLanes;
    uint32_t bit = uint32_t{1} << l;
    if (!converged) {
        // Retired without convergence: compact into the batched OSD work
        // queue (the posterior slice and syndrome are captured before the
        // lane's state is reset below); osdFlush writes the observable
        // mask.
        const std::vector<uint32_t> &flipped = laneFlipped_[l];
        double *post = osdEnqueue(laneShot_[l], flipped.data(),
                                  flipped.data() + flipped.size());
        for (std::size_t c = 0; c < tanner_->numCols(); ++c) {
            post[c] = lanePost_[c * W + l];
        }
    }
    // One walk over the columns both reads the converged decision and
    // restores the lane's hard bits and detector parities to zero: the
    // parity is the XOR of the hard columns' detectors, so toggling
    // them again clears it. The message array itself is NOT touched —
    // the next shot's first detector pass reads the priors instead.
    uint64_t result = 0;
    for (std::size_t c = 0; c < laneHardBits_.size(); ++c) {
        if ((laneHardBits_[c] & bit) == 0) {
            continue;
        }
        result ^= tanner_->colObs[c];
        laneHardBits_[c] &= ~bit;
        for (uint32_t e = tanner_->colBegin[c]; e < tanner_->colBegin[c + 1];
             ++e) {
            laneAcc_[(std::size_t)tanner_->colDet[e] * W + l] ^= 1;
        }
    }
    if (converged) {
        obs_out[laneShot_[l]] = result;
    }
    for (uint32_t d : laneFlipped_[l]) {
        laneSynB_[(std::size_t)d * W + l] = 0;
        laneSynSign_[(std::size_t)d * W + l] = 0.0;
    }
    laneFlipped_[l].clear();
    laneLiveMask_ &= ~bit;
}

void
BpOsdDecoder::laneIterate(int simd_level)
{
    LaneCtx cx;
    cx.numDetectors = numDetectors_;
    cx.numCols = tanner_->numCols();
    cx.scale = opts_.scale;
    cx.liveLanes = laneLiveMask_;
    cx.freshLanes = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
        if (((laneLiveMask_ >> l) & 1) != 0 && laneIter_[l] == 0) {
            cx.freshLanes |= uint32_t{1} << l;
        }
    }
    cx.colBegin = tanner_->colBegin.data();
    cx.colDet = tanner_->colDet.data();
    cx.edgeSlot = tanner_->edgeSlot.data();
    cx.detBegin = tanner_->detBegin.data();
    cx.detCol = tanner_->detCol.data();
    cx.prior = tanner_->prior.data();
    cx.check = laneCheck_.data();
    cx.sign = laneSign_.data();
    cx.post = lanePost_.data();
    cx.synSign = laneSynSign_.data();
    cx.synB = laneSynB_.data();
    cx.acc = laneAcc_.data();
    cx.hardBits = laneHardBits_.data();
    cx.mismatch = laneMismatch_.data();
#if PROPHUNT_LANES_X86
    if (simd_level >= 2) {
        iterateAvx512(cx);
        return;
    }
    if (simd_level >= 1) {
        iterateAvx2(cx);
        return;
    }
#else
    (void)simd_level;
#endif
    iterateBaseline(cx);
}

void
BpOsdDecoder::laneRun(const uint32_t *flipped, const uint32_t *offsets,
                      uint64_t *obs_out, PackedDecodeStats *stats)
{
    if (opts_.maxIterations == 0) {
        // No BP: OSD ranks the columns by all-zero posteriors, i.e. in
        // column-id order.
        for (uint32_t s : laneQueue_) {
            double *post = osdEnqueue(s, flipped + offsets[s],
                                      flipped + offsets[s + 1]);
            std::fill(post, post + tanner_->numCols(), 0.0);
            if (osdQueueSize_ >= kOsdFlushCap) {
                osdFlush(obs_out, stats);
            }
        }
        osdFlush(obs_out, stats);
        return;
    }
    laneEnsure();
    int simd = !laneUseAvx2() ? 0 : laneUseAvx512() ? 2 : 1;
    std::size_t next = 0;
    for (;;) {
        // Refill free lanes from the queue.
        for (std::size_t l = 0; l < kLanes && next < laneQueue_.size(); ++l) {
            if (((laneLiveMask_ >> l) & 1) == 0) {
                std::size_t s = laneQueue_[next++];
                laneInstall(l, s, flipped + offsets[s],
                            flipped + offsets[s + 1]);
            }
        }
        if (laneLiveMask_ == 0) {
            break;
        }
        laneIterate(simd);
        if (stats != nullptr) {
            stats->laneSlotsBusy += (uint64_t)std::popcount(laneLiveMask_);
            stats->laneSlotsTotal += kLanes;
        }
        // Per-lane stopping rules, mirroring the reference decoder's
        // iteration loop.
        for (std::size_t l = 0; l < kLanes; ++l) {
            if (((laneLiveMask_ >> l) & 1) == 0) {
                continue;
            }
            ++laneIter_[l];
            bool converged = laneMismatch_[l] == 0;
            bool done = converged;
            if (!converged) {
                if (opts_.stagnationWindow != 0) {
                    if (laneMismatch_[l] < laneBest_[l]) {
                        laneBest_[l] = laneMismatch_[l];
                        laneSinceBest_[l] = 0;
                    } else if (++laneSinceBest_[l] >=
                               opts_.stagnationWindow) {
                        done = true; // Stagnated; posteriors go to OSD.
                    }
                }
                if (laneIter_[l] >= opts_.maxIterations) {
                    done = true;
                }
            }
            if (done) {
                laneRetire(l, converged, obs_out);
            }
        }
        if (osdQueueSize_ >= kOsdFlushCap) {
            osdFlush(obs_out, stats);
        }
    }
    osdFlush(obs_out, stats);
}

void
BpOsdDecoder::decodePacked(const sim::FrameView &frames, uint64_t *obs_out,
                           PackedDecodeStats *stats)
{
    std::size_t shots = frames.shots;
    if (stats != nullptr) {
        stats->packedShots += shots;
    }
    sim::flippedDetectorLists(frames, packedOffsets_, packedFlipped_);
    // The low-weight stage resolves what it can inline, the rest queue
    // for the lanes.
    laneQueue_.clear();
    for (std::size_t s = 0; s < shots; ++s) {
        if (!decodeTrivial(packedFlipped_.data() + packedOffsets_[s],
                           packedFlipped_.data() + packedOffsets_[s + 1],
                           obs_out[s], stats)) {
            laneQueue_.push_back((uint32_t)s);
        }
    }
    laneRun(packedFlipped_.data(), packedOffsets_.data(), obs_out, stats);
}

} // namespace prophunt::decoder

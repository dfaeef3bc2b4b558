/**
 * @file
 * Lane-batched SIMD BP engine behind BpOsdDecoder::decode and
 * decodePacked.
 *
 * The engine runs min-sum BP for 8 shots in parallel "lanes" over the
 * global Tanner CSR built once per DEM. It is the decoder's only BP:
 * decodePacked feeds it a frame shard, decode() a single shot.
 * Messages live in ONE lane-interleaved in-place array (8 doubles per
 * edge): a detector pass reads column->detector values and overwrites
 * each slot with its detector->column reply (an edge belongs to exactly
 * one detector and one column, so neither pass reads a slot another
 * detector or column wrote this iteration). The detector -> column
 * two-minimum reduction processes all 8 lanes in one AVX-512 vector (two
 * AVX2 vectors on hardware without it, walked in a single pass over the
 * detector's edges so the two independent min chains hide the blend
 * latency) from contiguous loads — no gathers — and touches each message
 * cache line once per pass. Non-x86 builds use a bit-identical
 * scalar-lane generic kernel; all three kernel tiers produce the same
 * bits (PROPHUNT_NO_AVX512 / PROPHUNT_NO_AVX2 step down explicitly).
 *
 * Lanes carry no per-shot message initialization: the detector pass
 * substitutes the column prior on a lane's first iteration, when no
 * column pass has written real messages yet, while loading. Slots of a
 * lane without a live shot hold garbage that nobody reads — live lanes'
 * results never depend on them, since every pass reads only the lane's
 * own slots. Both passes walk every detector and column in index order,
 * which keeps the message walks sequential. Lanes retire individually
 * (convergence, stagnation, or the iteration budget) and are refilled
 * from the shot queue, so iteration skew between easy and hard syndromes
 * no longer serializes the batch.
 *
 * Retired-but-unconverged lanes do not solve OSD inline: they compact
 * into a batched work queue (shot id, syndrome, posterior snapshot) that
 * is flushed in one pass, so the post-pass runs out of hot scratch
 * instead of interleaving with lane state. Each job's solve is
 * independent, so the queueing changes throughput only.
 *
 * Exactness: every per-lane recurrence reproduces decodeReference's
 * arithmetic operation for operation (same edge order in the sums, same
 * strict-minimum updates, no FMA contraction), the per-lane stopping
 * rules are the reference ones, and non-converged lanes hand their
 * posteriors to the shared OSD post-pass — so decodePacked, decode() and
 * decodeReference agree bit for bit, and a shot's result never depends
 * on which shots share its lanes (shot-order invariance).
 * The sign-bit trick used by the vector kernels (sign(x) as the IEEE
 * sign bit) matches the scalar `v < 0.0` test because effective
 * column -> detector messages are never -0.0: priors are positive, and a
 * sum or difference of doubles only produces -0.0 from two negative
 * zeros.
 */
#include "decoder/bp_osd.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define PROPHUNT_LANES_X86 1
#include <immintrin.h>
#endif

namespace prophunt::decoder {

namespace {

/** Shots decoded in parallel: one AVX-512 vector or two AVX2 vectors of
 * doubles. The vector kernels are written for exactly this width. */
constexpr std::size_t kLanes = 8;

/** decodeReference's two-minimum initialization. */
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
 * the same kernels compile with and without AVX2. */
struct LaneCtx
{
    std::size_t numDetectors = 0;
    std::size_t numCols = 0;
    double scale = 0.0;
    /** Bit l: lane l holds a live shot. */
    uint32_t liveLanes = 0;
    /** Bit l: lane l is on its first iteration (messages still read as
     * the column prior; no column pass has run for it yet). */
    uint32_t freshLanes = 0;
    const uint32_t *colBegin = nullptr;
    const uint32_t *colDet = nullptr;
    const uint32_t *detBegin = nullptr;
    const uint32_t *detEdges = nullptr;
    const double *prior = nullptr;
    const double *edgePrior = nullptr;
    double *msg = nullptr;
    double *stage = nullptr;
    double *post = nullptr;
    const double *synSign = nullptr;
    const uint8_t *synB = nullptr;
    uint8_t *acc = nullptr;
    uint32_t *hardBits = nullptr;
    std::ptrdiff_t *mismatch = nullptr;
};

/** The effective column->detector message of (edge @p e, lane @p l): the
 * column prior before a lane's first column pass, the stored value
 * afterwards. */
inline double
effectiveMsg(const LaneCtx &cx, std::size_t e, std::size_t l)
{
    if (((cx.freshLanes >> l) & 1) != 0) {
        return cx.edgePrior[e];
    }
    return cx.msg[e * kLanes + l];
}

/** Detector -> column pass for one (detector, lane): the scalar min-sum
 * two-minimum reduction, indexed into the lane slice. */
void
detPassLane(const LaneCtx &cx, uint32_t d, std::size_t l)
{
    constexpr std::size_t W = kLanes;
    uint32_t b = cx.detBegin[d], en = cx.detBegin[d + 1];
    uint32_t deg = en - b;
    bool negProduct = cx.synB[(std::size_t)d * W + l] != 0;
    double min1 = kMinInit, min2 = kMinInit;
    uint32_t argpos = UINT32_MAX;
    for (uint32_t i = 0; i < deg; ++i) {
        double v = effectiveMsg(cx, cx.detEdges[b + i], l);
        cx.stage[(std::size_t)i * W + l] = v;
        if (v < 0.0) {
            negProduct = !negProduct;
        }
        double a = std::fabs(v);
        if (a < min1) {
            min2 = min1;
            min1 = a;
            argpos = i;
        } else if (a < min2) {
            min2 = a;
        }
    }
    double m1 = cx.scale * min1, m2 = cx.scale * min2;
    for (uint32_t i = 0; i < deg; ++i) {
        double v = cx.stage[(std::size_t)i * W + l];
        double mag = (i == argpos) ? m2 : m1;
        cx.msg[(std::size_t)cx.detEdges[b + i] * W + l] =
            (negProduct != (v < 0.0)) ? -mag : mag;
    }
}

/** Column -> detector pass for one (column, lane): posterior, hard
 * decision with incremental syndrome-mismatch tracking, message update. */
void
colPassLane(const LaneCtx &cx, uint32_t c, std::size_t l)
{
    constexpr std::size_t W = kLanes;
    uint32_t b = cx.colBegin[c], en = cx.colBegin[c + 1];
    double total = cx.prior[c];
    for (uint32_t e = b; e < en; ++e) {
        total += cx.msg[(std::size_t)e * W + l];
    }
    cx.post[(std::size_t)c * W + l] = total;
    uint32_t bit = uint32_t{1} << l;
    uint32_t h = total < 0 ? bit : 0;
    if (((cx.hardBits[c] ^ h) & bit) != 0) {
        cx.hardBits[c] ^= bit;
        for (uint32_t e = b; e < en; ++e) {
            std::size_t off = (std::size_t)cx.colDet[e] * W + l;
            cx.acc[off] ^= 1;
            cx.mismatch[l] += (cx.acc[off] != cx.synB[off]) ? 1 : -1;
        }
    }
    for (uint32_t e = b; e < en; ++e) {
        std::size_t off = (std::size_t)e * W + l;
        cx.msg[off] = total - cx.msg[off];
    }
}

void
detPassGeneric(const LaneCtx &cx)
{
    for (std::size_t d = 0; d < cx.numDetectors; ++d) {
        for (uint32_t mask = cx.liveLanes; mask != 0; mask &= mask - 1) {
            detPassLane(cx, (uint32_t)d,
                        (std::size_t)std::countr_zero(mask));
        }
    }
}

void
colPassGeneric(const LaneCtx &cx)
{
    for (std::size_t c = 0; c < cx.numCols; ++c) {
        for (uint32_t mask = cx.liveLanes; mask != 0; mask &= mask - 1) {
            colPassLane(cx, (uint32_t)c,
                        (std::size_t)std::countr_zero(mask));
        }
    }
}

#if PROPHUNT_LANES_X86

/** Element j is all-ones iff bit j of the index is set; the sign bits
 * drive _mm256_blendv_pd lane selection. */
alignas(32) constexpr int64_t kNibbleMask[16][4] = {
    {0, 0, 0, 0},     {-1, 0, 0, 0},   {0, -1, 0, 0},   {-1, -1, 0, 0},
    {0, 0, -1, 0},    {-1, 0, -1, 0},  {0, -1, -1, 0},  {-1, -1, -1, 0},
    {0, 0, 0, -1},    {-1, 0, 0, -1},  {0, -1, 0, -1},  {-1, -1, 0, -1},
    {0, 0, -1, -1},   {-1, 0, -1, -1}, {0, -1, -1, -1}, {-1, -1, -1, -1},
};

__attribute__((target("avx2"))) inline __m256d
nibbleMask(uint32_t nib)
{
    return _mm256_castsi256_pd(
        _mm256_load_si256((const __m256i *)kNibbleMask[nib]));
}

/**
 * AVX2 detector pass for the two 4-lane chunks walked in ONE pass over
 * each detector's edges: the two-minimum chains of the chunks are
 * independent, so interleaving them hides the blend latency, and every
 * message cache line is touched once per pass. Lanes with no live shot
 * produce garbage nobody reads.
 */
__attribute__((target("avx2"))) void
detPassAvx2(const LaneCtx &cx)
{
    constexpr int NC = kLanes / 4; // 4-lane chunks
    constexpr std::size_t W = kLanes;
    const __m256d signMask = _mm256_set1_pd(-0.0);
    const __m256d minInit = _mm256_set1_pd(kMinInit);
    const __m256d scaleV = _mm256_set1_pd(cx.scale);
    __m256d freshV[NC];
    for (int k = 0; k < NC; ++k) {
        freshV[k] = nibbleMask((cx.freshLanes >> (4 * k)) & 0xf);
    }
    for (std::size_t d = 0; d < cx.numDetectors; ++d) {
        uint32_t b = cx.detBegin[d], en = cx.detBegin[d + 1];
        uint32_t deg = en - b;
        __m256d signAcc[NC], min1[NC], min2[NC], argpos[NC];
        for (int k = 0; k < NC; ++k) {
            signAcc[k] =
                _mm256_loadu_pd(cx.synSign + (std::size_t)d * W + 4 * k);
            min1[k] = minInit;
            min2[k] = minInit;
            argpos[k] = _mm256_set1_pd(-1.0);
        }
        for (uint32_t i = 0; i < deg; ++i) {
            std::size_t e = cx.detEdges[b + i];
            const __m256d priorV = _mm256_set1_pd(cx.edgePrior[e]);
            const __m256d idx = _mm256_set1_pd((double)i);
            for (int k = 0; k < NC; ++k) {
                __m256d v = _mm256_loadu_pd(cx.msg + e * W + 4 * k);
                // Prior on the lane's first iteration, stored value
                // afterwards.
                v = _mm256_blendv_pd(v, priorV, freshV[k]);
                _mm256_storeu_pd(cx.stage + (std::size_t)i * W + 4 * k, v);
                signAcc[k] =
                    _mm256_xor_pd(signAcc[k], _mm256_and_pd(v, signMask));
                __m256d a = _mm256_andnot_pd(signMask, v);
                __m256d lt1 = _mm256_cmp_pd(a, min1[k], _CMP_LT_OQ);
                __m256d lt2 = _mm256_cmp_pd(a, min2[k], _CMP_LT_OQ);
                min2[k] = _mm256_blendv_pd(
                    _mm256_blendv_pd(min2[k], a, lt2), min1[k], lt1);
                min1[k] = _mm256_blendv_pd(min1[k], a, lt1);
                argpos[k] = _mm256_blendv_pd(argpos[k], idx, lt1);
            }
        }
        __m256d m1[NC], m2[NC];
        for (int k = 0; k < NC; ++k) {
            m1[k] = _mm256_mul_pd(scaleV, min1[k]);
            m2[k] = _mm256_mul_pd(scaleV, min2[k]);
        }
        for (uint32_t i = 0; i < deg; ++i) {
            std::size_t e = cx.detEdges[b + i];
            const __m256d idx = _mm256_set1_pd((double)i);
            for (int k = 0; k < NC; ++k) {
                __m256d v =
                    _mm256_loadu_pd(cx.stage + (std::size_t)i * W + 4 * k);
                __m256d eq = _mm256_cmp_pd(idx, argpos[k], _CMP_EQ_OQ);
                __m256d mag = _mm256_blendv_pd(m1[k], m2[k], eq);
                // mag >= 0, so OR-ing the product sign bit equals the
                // scalar ±mag selection bit for bit (including ±0.0).
                __m256d sb = _mm256_and_pd(
                    _mm256_xor_pd(signAcc[k], v), signMask);
                _mm256_storeu_pd(cx.msg + e * W + 4 * k,
                                 _mm256_or_pd(mag, sb));
            }
        }
    }
}

__attribute__((target("avx2"))) void
colPassAvx2(const LaneCtx &cx)
{
    constexpr int NC = kLanes / 4; // 4-lane chunks
    constexpr std::size_t W = kLanes;
    const __m256d zero = _mm256_setzero_pd();
    for (std::size_t c = 0; c < cx.numCols; ++c) {
        uint32_t b = cx.colBegin[c], en = cx.colBegin[c + 1];
        __m256d tot[NC];
        for (int k = 0; k < NC; ++k) {
            tot[k] = _mm256_set1_pd(cx.prior[c]);
        }
        for (uint32_t e = b; e < en; ++e) {
            for (int k = 0; k < NC; ++k) {
                tot[k] = _mm256_add_pd(
                    tot[k],
                    _mm256_loadu_pd(cx.msg + (std::size_t)e * W + 4 * k));
            }
        }
        for (int k = 0; k < NC; ++k) {
            // Unmasked: dead lanes' posteriors are garbage nobody
            // reads (a live lane rewrites its slice every iteration).
            _mm256_storeu_pd(cx.post + (std::size_t)c * W + 4 * k, tot[k]);
            uint32_t nib = (cx.liveLanes >> (4 * k)) & 0xf;
            if (nib == 0) {
                continue;
            }
            uint32_t hNow =
                (uint32_t)_mm256_movemask_pd(
                    _mm256_cmp_pd(tot[k], zero, _CMP_LT_OQ)) &
                nib;
            uint32_t hPrev = (cx.hardBits[c] >> (4 * k)) & 0xf;
            uint32_t changed = hNow ^ hPrev;
            if (changed != 0) {
                cx.hardBits[c] ^= changed << (4 * k);
                while (changed != 0) {
                    std::size_t l =
                        4 * k + (std::size_t)std::countr_zero(changed);
                    for (uint32_t e = b; e < en; ++e) {
                        std::size_t off =
                            (std::size_t)cx.colDet[e] * W + l;
                        cx.acc[off] ^= 1;
                        cx.mismatch[l] +=
                            (cx.acc[off] != cx.synB[off]) ? 1 : -1;
                    }
                    changed &= changed - 1;
                }
            }
        }
        for (uint32_t e = b; e < en; ++e) {
            for (int k = 0; k < NC; ++k) {
                std::size_t off = (std::size_t)e * W + 4 * k;
                // In-place and unmasked: garbage lanes stay garbage.
                _mm256_storeu_pd(
                    cx.msg + off,
                    _mm256_sub_pd(tot[k], _mm256_loadu_pd(cx.msg + off)));
            }
        }
    }
}

/**
 * AVX-512 kernels: one 512-bit vector carries all 8 lanes, with half the
 * instruction stream of the AVX2 pair — and the lane masks become native
 * predicate masks (__mmask8) instead of nibble-expanded blend vectors.
 * Every select/compare mirrors the AVX2 kernel operation for operation
 * per lane, and all sign handling stays integer bit manipulation, so the
 * three kernel tiers are bit-identical.
 */

__attribute__((target("avx512f"))) void
detPassAvx512(const LaneCtx &cx)
{
    constexpr std::size_t W = kLanes;
    const __m512i signMask = _mm512_set1_epi64(INT64_MIN);
    const __m512i absMask = _mm512_set1_epi64(INT64_MAX);
    const __m512d minInit = _mm512_set1_pd(kMinInit);
    const __m512d scaleV = _mm512_set1_pd(cx.scale);
    const __mmask8 fresh = (__mmask8)cx.freshLanes;
    for (std::size_t d = 0; d < cx.numDetectors; ++d) {
        uint32_t b = cx.detBegin[d], en = cx.detBegin[d + 1];
        uint32_t deg = en - b;
        __m512i signAcc = _mm512_castpd_si512(
            _mm512_loadu_pd(cx.synSign + (std::size_t)d * W));
        __m512d min1 = minInit, min2 = minInit;
        __m512d argpos = _mm512_set1_pd(-1.0);
        for (uint32_t i = 0; i < deg; ++i) {
            std::size_t e = cx.detEdges[b + i];
            __m512d v = _mm512_loadu_pd(cx.msg + e * W);
            // Prior on the lane's first iteration, stored value
            // afterwards.
            v = _mm512_mask_blend_pd(fresh, v,
                                     _mm512_set1_pd(cx.edgePrior[e]));
            _mm512_storeu_pd(cx.stage + (std::size_t)i * W, v);
            __m512i vi = _mm512_castpd_si512(v);
            signAcc =
                _mm512_xor_epi64(signAcc, _mm512_and_epi64(vi, signMask));
            __m512d a = _mm512_castsi512_pd(_mm512_and_epi64(vi, absMask));
            __mmask8 lt1 = _mm512_cmp_pd_mask(a, min1, _CMP_LT_OQ);
            __mmask8 lt2 = _mm512_cmp_pd_mask(a, min2, _CMP_LT_OQ);
            min2 = _mm512_mask_blend_pd(
                lt1, _mm512_mask_blend_pd(lt2, min2, a), min1);
            min1 = _mm512_mask_blend_pd(lt1, min1, a);
            argpos = _mm512_mask_blend_pd(lt1, argpos,
                                          _mm512_set1_pd((double)i));
        }
        __m512d m1 = _mm512_mul_pd(scaleV, min1);
        __m512d m2 = _mm512_mul_pd(scaleV, min2);
        for (uint32_t i = 0; i < deg; ++i) {
            std::size_t e = cx.detEdges[b + i];
            __m512d v = _mm512_loadu_pd(cx.stage + (std::size_t)i * W);
            __mmask8 eq = _mm512_cmp_pd_mask(_mm512_set1_pd((double)i),
                                             argpos, _CMP_EQ_OQ);
            __m512d mag = _mm512_mask_blend_pd(eq, m1, m2);
            // mag >= 0, so OR-ing the product sign bit equals the scalar
            // ±mag selection bit for bit (including ±0.0).
            __m512i sb = _mm512_and_epi64(
                _mm512_xor_epi64(signAcc, _mm512_castpd_si512(v)),
                signMask);
            _mm512_storeu_pd(cx.msg + e * W,
                             _mm512_castsi512_pd(_mm512_or_epi64(
                                 _mm512_castpd_si512(mag), sb)));
        }
    }
}

__attribute__((target("avx512f"))) void
colPassAvx512(const LaneCtx &cx)
{
    constexpr std::size_t W = kLanes;
    const __m512d zero = _mm512_setzero_pd();
    for (std::size_t c = 0; c < cx.numCols; ++c) {
        uint32_t b = cx.colBegin[c], en = cx.colBegin[c + 1];
        __m512d tot = _mm512_set1_pd(cx.prior[c]);
        for (uint32_t e = b; e < en; ++e) {
            tot = _mm512_add_pd(tot,
                                _mm512_loadu_pd(cx.msg + (std::size_t)e * W));
        }
        // Unmasked: dead lanes' posteriors are garbage nobody reads (a
        // live lane rewrites its slice every iteration).
        _mm512_storeu_pd(cx.post + (std::size_t)c * W, tot);
        uint32_t hNow =
            (uint32_t)_mm512_cmp_pd_mask(tot, zero, _CMP_LT_OQ) &
            cx.liveLanes;
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
        for (uint32_t e = b; e < en; ++e) {
            std::size_t off = (std::size_t)e * W;
            // In-place and unmasked: garbage lanes stay garbage.
            _mm512_storeu_pd(
                cx.msg + off,
                _mm512_sub_pd(tot, _mm512_loadu_pd(cx.msg + off)));
        }
    }
}

#endif // PROPHUNT_LANES_X86

/** True iff @p name is set to a non-empty value — CI matrix legs pass an
 * empty string on the leg that should keep the native kernels. */
bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && v[0] != '\0';
}

/** Runtime kernel selection. PROPHUNT_NO_AVX2 forces the generic lanes —
 * the cross-check the lane tests use on AVX2 hardware. */
bool
laneUseAvx2()
{
#if PROPHUNT_LANES_X86
    return __builtin_cpu_supports("avx2") && !envFlag("PROPHUNT_NO_AVX2");
#else
    return false;
#endif
}

/** PROPHUNT_NO_AVX512 (or PROPHUNT_NO_AVX2) steps down to the AVX2
 * (resp. generic) kernels; all tiers are bit-identical. */
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
    std::size_t edges = tanner_->colDet.size();
    std::size_t ne = tanner_->numCols();
    if (laneShot_.size() == kLanes) {
        return;
    }
    laneMsg_.assign(edges * kLanes, 0.0);
    lanePost_.assign(ne * kLanes, 0.0);
    std::size_t maxDeg = 0;
    for (std::size_t d = 0; d < numDetectors_; ++d) {
        maxDeg = std::max<std::size_t>(maxDeg,
                                       tanner_->detBegin[d + 1] - tanner_->detBegin[d]);
    }
    laneStage_.assign(maxDeg * kLanes, 0.0);
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
    // Every job solves over all columns against the shared packed
    // columns of the Tanner structure. An unsolvable syndrome lies
    // outside the column span and decodes to 0.
    const std::vector<uint32_t> &cols = tanner_->allCols;
    for (std::size_t k = 0; k < osdQueueSize_; ++k) {
        const OsdJob &job = osdQueue_[k];
        uint64_t result = 0;
        if (osdSolve(cols, job.post.data(), job.flipped, opts_.packedOsd)) {
            for (std::size_t c = 0; c < cols.size(); ++c) {
                if (solUses_[c]) {
                    result ^= tanner_->colObs[c];
                }
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
    cx.detBegin = tanner_->detBegin.data();
    cx.detEdges = tanner_->detEdges.data();
    cx.prior = tanner_->prior.data();
    cx.edgePrior = tanner_->edgePrior.data();
    cx.msg = laneMsg_.data();
    cx.stage = laneStage_.data();
    cx.post = lanePost_.data();
    cx.synSign = laneSynSign_.data();
    cx.synB = laneSynB_.data();
    cx.acc = laneAcc_.data();
    cx.hardBits = laneHardBits_.data();
    cx.mismatch = laneMismatch_.data();
#if PROPHUNT_LANES_X86
    if (simd_level >= 2) {
        detPassAvx512(cx);
        colPassAvx512(cx);
        return;
    }
    if (simd_level >= 1) {
        detPassAvx2(cx);
        colPassAvx2(cx);
        return;
    }
#else
    (void)simd_level;
#endif
    detPassGeneric(cx);
    colPassGeneric(cx);
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
        // Per-lane stopping rules, mirroring decodeReference's iteration
        // loop.
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
    // Trivial syndromes resolve inline, the rest queue for the lanes.
    laneQueue_.clear();
    for (std::size_t s = 0; s < shots; ++s) {
        flippedScratch_.assign(packedFlipped_.begin() + packedOffsets_[s],
                               packedFlipped_.begin() + packedOffsets_[s + 1]);
        if (!decodeTrivial(flippedScratch_, obs_out[s])) {
            laneQueue_.push_back((uint32_t)s);
        }
    }
    laneRun(packedFlipped_.data(), packedOffsets_.data(), obs_out, stats);
}

} // namespace prophunt::decoder

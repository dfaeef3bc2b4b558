/**
 * @file
 * Reference BP+OSD that the decoder tests compare libprophunt's BP+OSD
 * against (test support, not libprophunt).
 *
 *  - LowWeightReference is the low-weight stage's rule (see
 *    BpOsdDecoder::decodeTrivial) over a std::map from sorted detector
 *    lists to columns, built from the Tanner CSR: no hashing, and its
 *    pairs come from the first flipped detector, not the rarest.
 *  - decodeReference is the original BP+OSD behind that stage: per-call
 *    edge lists and message arrays, full-graph single-precision min-sum
 *    BP with the stagnation rule, then OSD-0 by a full posterior sort
 *    and scalar elimination. The decoder must reproduce it bit for bit
 *    at every option value.
 *  - ScalarOsd is the scalar OSD-0 elimination that the packed one
 *    replaced, on the same lazy (posterior, column) ranking: the
 *    differential reference for BpOsdDecoder::osdSolve.
 */
#ifndef PROPHUNT_TESTS_SUPPORT_BP_OSD_REFERENCE_H
#define PROPHUNT_TESTS_SUPPORT_BP_OSD_REFERENCE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "decoder/bp_osd.h"
#include "sim/frame_sampler.h"

namespace prophunt::oracles {

using Tanner = decoder::BpOsdDecoder::Tanner;

/** The low-weight stage over an independent lookup; @p t must outlive
 * it. */
class LowWeightReference
{
  public:
    explicit LowWeightReference(const Tanner &t);

    /** BpOsdDecoder::decodeTrivial's contract for the sorted syndrome
     * @p flipped: true, with the mask in @p out, when the stage resolves
     * the shot. */
    bool resolve(const std::vector<uint32_t> &flipped, uint64_t &out) const;

  private:
    const Tanner &t_;
    /** Detector list -> its columns, ascending prior, then id. */
    std::map<std::vector<uint32_t>, std::vector<uint32_t>> bySig_;
};

/** The BP half: whether BP converged, and its final float posterior
 * LLR per column (all zero when maxIterations = 0). */
struct ReferenceBp
{
    bool converged = false;
    std::vector<float> posterior;
};

ReferenceBp referenceBp(const Tanner &t, const decoder::BpOsdOptions &opts,
                        const std::vector<uint32_t> &flipped);

/** Reference BP+OSD decode of one shot: the observable mask. @p low
 * must be built from @p t. */
uint64_t decodeReference(const Tanner &t, const LowWeightReference &low,
                         const decoder::BpOsdOptions &opts,
                         const std::vector<uint32_t> &flipped);

/** One OSD-0 input: a shot reference BP does not converge on. */
struct OsdJob
{
    std::size_t shot = 0;
    std::vector<uint32_t> flipped;
    std::vector<float> post; ///< Posterior per column.
};

/**
 * The OSD jobs of @p rows at @p opts, in shot order: the shots that
 * @p low does not resolve (see LowWeightReference::resolve) and on
 * which reference BP does not converge. The lane engine counts exactly
 * these in PackedDecodeStats::osdShots.
 */
std::vector<OsdJob> referenceOsdJobs(const Tanner &t,
                                     const LowWeightReference &low,
                                     const decoder::BpOsdOptions &opts,
                                     const sim::SampleBatch &rows);

/** Scalar OSD-0 with reusable scratch; @p t must outlive it. */
class ScalarOsd
{
  public:
    explicit ScalarOsd(const Tanner &t) : t_(t) {}

    /** BpOsdDecoder::osdSolve's contract, with @p solution ascending. */
    bool solve(const std::vector<float> &post,
               const std::vector<uint32_t> &flipped,
               std::vector<uint32_t> &solution);

  private:
    void osdSortMore();
    /** The elimination; fills solUses_ per column. */
    bool osdSolveScalar(const std::vector<uint32_t> &flipped);

    const Tanner &t_;
    /** (ordered posterior key, column id) ranking records. */
    std::vector<std::pair<uint32_t, uint32_t>> osdKeys_;
    std::size_t osdSortedPrefix_ = 0;
    // Pivots are stored flattened (rows, bit columns, member segments)
    // so the elimination loop never allocates.
    std::vector<uint64_t> synWords_;
    std::vector<uint64_t> colWords_;
    std::vector<uint8_t> solUses_;
    std::vector<uint32_t> pivRow_;
    std::vector<uint64_t> pivCols_;
    std::vector<uint32_t> pivMemBegin_;
    std::vector<uint32_t> pivMembers_;
    std::vector<uint32_t> memScratch_;
    std::vector<uint64_t> rScratch_;
    std::vector<uint8_t> useScratch_;
};

} // namespace prophunt::oracles

#endif // PROPHUNT_TESTS_SUPPORT_BP_OSD_REFERENCE_H

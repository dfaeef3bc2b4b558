/**
 * @file
 * Reference BP+OSD that the decoder tests and bench/packed_pipeline
 * compare libprophunt's BP+OSD against (test support, not libprophunt).
 *
 *  - decodeReference is the original BP+OSD: per-call edge lists and
 *    message arrays, full-graph min-sum BP with the stagnation rule,
 *    then OSD-0 by a full posterior sort and scalar elimination. The
 *    lane engine must reproduce it bit for bit at every option value.
 *  - ScalarOsd is the scalar OSD-0 elimination that the packed one
 *    replaced, on the same lazy (posterior, column) ranking: the
 *    differential and timing reference for BpOsdDecoder::osdSolve.
 */
#ifndef PROPHUNT_TESTS_SUPPORT_BP_OSD_REFERENCE_H
#define PROPHUNT_TESTS_SUPPORT_BP_OSD_REFERENCE_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "decoder/bp_osd.h"
#include "sim/sampler.h"

namespace prophunt::oracles {

using Tanner = decoder::BpOsdDecoder::Tanner;

/** The BP half: whether BP converged, its final posterior LLR per column
 * (all zero when maxIterations = 0), and its work arrays, which
 * decodeReference holds through OSD and frees in the original order (the
 * seed path's cost includes its heap behaviour). */
struct ReferenceBp
{
    bool converged = false;
    std::vector<uint8_t> syn;
    std::vector<uint32_t> edge_det;
    std::vector<double> msg_c2d;
    std::vector<std::vector<uint32_t>> det_edges;
    std::vector<double> msg_d2c;
    std::vector<double> posterior;
    std::vector<uint8_t> hard;
};

ReferenceBp referenceBp(const Tanner &t, const decoder::BpOsdOptions &opts,
                        const std::vector<uint32_t> &flipped);

/** Reference BP+OSD decode of one shot: the observable mask. */
uint64_t decodeReference(const Tanner &t, const decoder::BpOsdOptions &opts,
                         const std::vector<uint32_t> &flipped);

/** One OSD-0 input: a shot reference BP does not converge on. */
struct OsdJob
{
    std::size_t shot = 0;
    std::vector<uint32_t> flipped;
    std::vector<double> post; ///< Posterior per column.
};

/**
 * The OSD jobs of @p rows at @p opts, in shot order: the shots not
 * resolved without BP (empty syndrome, an exact single-mechanism
 * signature, or a detector no column touches) on which reference BP
 * does not converge. The lane engine counts exactly these in
 * PackedDecodeStats::osdShots.
 */
std::vector<OsdJob> referenceOsdJobs(const Tanner &t,
                                     const decoder::BpOsdOptions &opts,
                                     const sim::SampleBatch &rows);

/** Scalar OSD-0 with reusable scratch; @p t must outlive it. */
class ScalarOsd
{
  public:
    explicit ScalarOsd(const Tanner &t) : t_(t) {}

    /** BpOsdDecoder::osdSolve's contract, with @p solution ascending. */
    bool solve(const std::vector<double> &post,
               const std::vector<uint32_t> &flipped,
               std::vector<uint32_t> &solution);

  private:
    void osdSortMore();
    /** The elimination; fills solUses_ per column. */
    bool osdSolveScalar(const std::vector<uint32_t> &flipped);

    const Tanner &t_;
    /** (ordered posterior key, column id) ranking records. */
    std::vector<std::pair<uint64_t, uint32_t>> osdKeys_;
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

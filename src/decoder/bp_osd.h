/**
 * @file
 * Belief propagation + ordered-statistics decoding for LDPC DEMs.
 *
 * A shot first goes through an exact low-weight stage: the empty
 * syndrome decodes to 0, a syndrome equal to one column's detector set
 * to that column's observables, and a syndrome whose weight-2
 * explanations (pairs of columns whose detector sets XOR to it) all
 * flip the same observables to that mask. Every other shot runs min-sum
 * BP on the full Tanner graph of the DEM; if the hard decision does not
 * reproduce the syndrome, OSD-0 re-solves it by Gaussian elimination
 * over every column ranked by BP reliability. A syndrome outside the
 * column span decodes to 0.
 *
 * BP deliberately runs on the whole graph rather than on a localized
 * region around the flipped detectors (the BP-LSD idea): on every
 * benchmark code a radius-3 region changed no prediction relative to the
 * full graph, while its growth, bookkeeping, and fallback paths cost
 * code and time on every shot.
 */
#ifndef PROPHUNT_DECODER_BP_OSD_H
#define PROPHUNT_DECODER_BP_OSD_H

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "decoder/decoder.h"
#include "decoder/gf2_dense.h"
#include "sim/dem.h"

namespace prophunt::decoder {

/** Options for the BP+OSD decoder. */
struct BpOsdOptions
{
    std::size_t maxIterations = 30;
    /**
     * Min-sum normalization factor. BP runs in single precision, so the
     * decoder rounds it to float once and uses only that value. The
     * rounded value must be positive and keep scale * 1e30 (the min-sum
     * start value, scaled) finite: 0 < scale < about 3.4e8. The
     * constructor throws std::invalid_argument otherwise, NaN included.
     */
    double scale = 0.8;
    /**
     * Stop BP once this many consecutive iterations pass without the
     * syndrome-mismatch count (the Hamming distance between the
     * hard-decision parity and the syndrome) reaching a new minimum; 0 =
     * always run to maxIterations. Every path, the reference decoder in
     * tests/support/ included, applies the same rule.
     *
     * Non-converging syndromes dominate LDPC decode time: they burn the
     * whole iteration budget polishing posteriors that OSD then only uses
     * for column ordering. Cutting them off once BP stagnates leaves the
     * logical error rate statistically unchanged or slightly better
     * (over-iterated min-sum misleads OSD; see the batch-decode tests)
     * while removing most BP work on the hard shots.
     */
    std::size_t stagnationWindow = 2;
};

/**
 * BP+OSD decoder over a detector error model.
 *
 * BP runs in one engine: single-precision min-sum for 16 shots at once
 * in SIMD lanes over a Tanner structure flattened once per DEM (global
 * CSR edge lists) and shared by every clone (see bp_osd_lanes.cc).
 * The OSD post-pass ranks the columns by those float posteriors. decodePacked()
 * feeds it a whole frame shard, decode() a single shot; both agree bit
 * for bit with the unoptimized reference decoder that the tests keep in
 * tests/support/, for every option value.
 */
class BpOsdDecoder : public Decoder
{
  public:
    /** Throws std::invalid_argument when @p opts.scale is out of range
     * (see BpOsdOptions::scale). */
    explicit BpOsdDecoder(const sim::Dem &dem, BpOsdOptions opts = {});

    /**
     * Start value of min-sum's two smallest input magnitudes. Finite, so
     * a detector record that no input lowered still scales and sums to
     * finite values; the reference decoder in tests/support/ starts from
     * it too.
     */
    static constexpr float kMinInit = 1e30f;

    /** Syndromes the low-weight stage resolves decode by lookup; any
     * other shot runs through the lane engine alone. */
    uint64_t decode(const std::vector<uint32_t> &flipped_detectors) override;

    /** Native frame-layout path: per-shot syndromes are extracted from
     * the detector-major words (sim::flippedDetectorLists); the
     * low-weight stage resolves what it can, the lane engine the rest. */
    void decodePacked(const sim::FrameView &frames, uint64_t *obs_out,
                      PackedDecodeStats *stats = nullptr) override;

    /**
     * OSD-0, the post-pass of every shot BP does not converge on: solve
     * H x = s over all columns by incremental GF(2) elimination, taking
     * columns in ascending posterior order (ties broken by column id,
     * so equal posteriors still give one pivot sequence).
     *
     * @p post holds one posterior per column and @p flipped the sorted
     * flipped detectors. Returns whether the syndrome is in the column
     * span; if so, @p solution lists the columns whose XOR reproduces
     * it, in no particular order. An unsolvable syndrome decodes to 0.
     */
    bool osdSolve(const std::vector<float> &post,
                  const std::vector<uint32_t> &flipped,
                  std::vector<uint32_t> &solution);

    /**
     * Clones share the immutable per-DEM Tanner structure (one
     * shared_ptr<const Tanner> behind every copy), so cloning a
     * prototype for another worker slot copies only the mutable
     * per-shot scratch, not the graph.
     */
    std::unique_ptr<Decoder>
    clone() const override
    {
        return std::make_unique<BpOsdDecoder>(*this);
    }

    /**
     * Immutable per-DEM decode structure: per-column data, the flattened
     * global Tanner CSR, and the signature table, built once per DEM by
     * buildTanner() and referenced read-only by every per-shot pass.
     * Edge e of column c spans colBegin[c]..colBegin[c+1] in (column,
     * slot) order, its detectors ascending. The same edges grouped by
     * detector are "slots": detector d owns slots detBegin[d]..
     * detBegin[d+1], in (column, slot) order as well.
     */
    struct Tanner
    {
        /** One open-addressing entry: the columns whose detector-set
         * hash is @p hash are sigCols[begin..end). end == begin marks a
         * free entry. */
        struct SigEntry
        {
            uint64_t hash = 0;
            uint32_t begin = 0;
            uint32_t end = 0;
        };

        std::vector<uint64_t> colObs;
        /** log((1-p)/p) per column, rounded once to float. */
        std::vector<float> prior;
        // Global Tanner CSR.
        std::vector<uint32_t> colBegin;
        std::vector<uint32_t> colDet;   ///< Edge -> detector.
        std::vector<uint32_t> edgeSlot; ///< Edge -> its detector-order slot.
        std::vector<uint32_t> detBegin;
        std::vector<uint32_t> detCol;   ///< Slot -> column.
        /** Row c = column c packed over the detectors: the OSD
         * elimination's input, built once instead of per solve. */
        DenseBitMat colBits;
        // Signature table of the low-weight stage (decodeTrivial). A
        // detector set's hash is the XOR of its detectors' fixed
        // Zobrist keys, so the hash of a symmetric difference is the
        // XOR of the two hashes.
        std::vector<uint64_t> detKey;  ///< Zobrist key per detector.
        std::vector<uint64_t> colHash; ///< Detector-set hash per column.
        /** Power-of-two open-addressing table over the distinct hashes
         * of the columns with at least one detector, linear probing
         * from the hash's low bits. */
        std::vector<SigEntry> sigTable;
        /** Columns grouped by hash; within a group by ascending prior
         * (likeliest first), then column id. */
        std::vector<uint32_t> sigCols;

        std::size_t numCols() const { return colObs.size(); }
    };

    /** Build the shared read-only Tanner structure of @p dem. */
    static std::shared_ptr<const Tanner> buildTanner(const sim::Dem &dem);

  private:
    /**
     * The low-weight stage: resolve the sorted syndrome [@p first,
     * @p last) without BP where that is exact, and return false when BP
     * must run. It resolves
     *  - the empty syndrome, to 0;
     *  - a flipped detector no column touches (unexplainable), to 0;
     *  - a syndrome equal to some column's detector set, to the
     *    observables of the likeliest such column (smallest prior, then
     *    lowest id);
     *  - otherwise, a syndrome with at least one weight-2 explanation
     *    whose weight-2 explanations all flip the same observables, to
     *    that mask. Columns that share a detector set but not their
     *    observables count as several explanations, so they disagree.
     * Every weight-2 explanation has exactly one column on the flipped
     * detector d0 of smallest degree, so the search probes the table
     * once per column c on d0, at hash(S) ^ hash(c), and compares each
     * hit's detector list exactly. Shots resolved by that last rule are
     * counted in @p stats->lowWeightShots when @p stats is non-null.
     */
    bool decodeTrivial(const uint32_t *first, const uint32_t *last,
                       uint64_t &out, PackedDecodeStats *stats) const;

    /**
     * One posterior-ranking record: the high half is the posterior
     * mapped to a uint32 whose integer order equals float order (with
     * -0.0f collapsed onto +0.0f), the low half the column id, so
     * integer order is (posterior, column id) order. Selecting/sorting
     * flat 8-byte records replaces the indirect float/column comparator
     * — the ordering, not the elimination, dominated the OSD post-pass.
     */
    using OsdKey = uint64_t;

    /** Start osdSolve's ranking of @p post: set the sampled threshold
     * osdTau_ and key the columns at or below it (osdKeys_ then holds
     * only them, none sorted yet). */
    void osdRank(const std::vector<float> &post);
    /** Extend the sorted prefix of osdKeys_ by the next chunk of most
     * likely columns: the lazy ranking osdSolve triggers when the
     * elimination outruns the sorted prefix. Once the kept columns are
     * used up, the ones above osdTau_ are keyed and ranked on. */
    void osdSortMore(const std::vector<float> &post);

    // --- lane engine (decode and decodePacked; see bp_osd_lanes.cc) ---

    /**
     * Decode every shot listed in laneQueue_ through the lanes and the
     * batched OSD post-pass: shot s's syndrome is flipped[offsets[s] ..
     * offsets[s + 1]) and its observable mask goes to obs_out[s].
     */
    void laneRun(const uint32_t *flipped, const uint32_t *offsets,
                 uint64_t *obs_out, PackedDecodeStats *stats);
    /** Size the lane-interleaved state (no-op once sized). */
    void laneEnsure();
    /** Park shot @p shot with syndrome [@p first, @p last) in lane @p l. */
    void laneInstall(std::size_t l, std::size_t shot, const uint32_t *first,
                     const uint32_t *last);
    /** Finish lane @p l and restore the lane's slice of every
     * between-shot invariant. Converged lanes write their observable
     * mask into @p obs_out immediately; unconverged lanes compact into
     * the batched OSD work queue (osdFlush writes their masks later). */
    void laneRetire(std::size_t l, bool converged, uint64_t *obs_out);
    /** One BP iteration for every live lane (detector and column pass).
     * One kernel serves every tier; simd_level picks the vector width it
     * is instantiated at (0: 4 lanes per vector on the baseline ISA,
     * 1: 8 on AVX2, 2: 16 on AVX-512). All widths are bit-identical. */
    void laneIterate(int simd_level);

    // --- batched OSD work queue (the lane engine's post-pass) ---

    /** One retired-but-unconverged shot awaiting the OSD post-pass. */
    struct OsdJob
    {
        std::size_t shot = 0;
        std::vector<uint32_t> flipped;
        std::vector<float> post; ///< Posterior per column.
    };

    /** Queue shot @p shot with syndrome [@p first, @p last) for the OSD
     * post-pass and return its posterior buffer, one entry per column for
     * the caller to fill (storage reused across flushes). */
    float *osdEnqueue(std::size_t shot, const uint32_t *first,
                       const uint32_t *last);
    /** Solve every queued job and write the observable masks. */
    void osdFlush(uint64_t *obs_out, PackedDecodeStats *stats);

    BpOsdOptions opts_;
    /** opts_.scale rounded once to float: the factor BP applies. */
    float scale_;
    std::size_t numDetectors_;
    /** Shared immutable DEM structure; every clone points at the same
     * Tanner, only the scratch below is per-instance. */
    std::shared_ptr<const Tanner> tanner_;

    // OSD scratch (osdSolve and osdFlush).
    Gf2Eliminator elim_;
    std::vector<uint32_t> osdSolution_; ///< osdFlush's solution columns.
    std::vector<OsdKey> osdKeys_;       ///< Posterior-ranking records.
    std::size_t osdSortedPrefix_ = 0;   ///< Sorted prefix of osdKeys_.
    std::vector<float> osdSample_;      ///< Strided posterior sample.
    float osdTau_ = 0.0f;               ///< osdRank's filter threshold.
    // Batched OSD queue (lane engine). Entries are reused: osdQueueSize_
    // counts the live prefix, the vectors behind it keep their capacity.
    std::vector<OsdJob> osdQueue_;
    std::size_t osdQueueSize_ = 0;

    // Lane engine state (sized by laneEnsure on the first decode, so a
    // prototype that only gets cloned never allocates it). Arrays are
    // lane-interleaved: element (i, lane) lives at i*16 + lane. Slots of
    // lanes without a live shot hold garbage nobody reads; a lane's first
    // detector pass substitutes the column prior for the posterior
    // difference it reads, so installing a shot writes no check state.
    /** Compressed detector->column messages: per detector and lane, the
     * last detector pass's (scale*min1, scale*min2, argmin slot, sign
     * product) record, the slot stored as an int32 bit pattern. The
     * message to the column of slot s is rebuilt from its detector's
     * record and laneSign_[s]. */
    std::vector<float> laneCheck_;
    /** Per slot, bit l = sign of the column->detector value lane l's
     * last detector pass read on it. */
    std::vector<uint16_t> laneSign_;
    std::vector<float> lanePost_;
    std::vector<uint32_t> laneHardBits_; ///< Per column, bit l = lane l.
    std::vector<uint8_t> laneAcc_;       ///< Hard-decision parity per (det, lane).
    std::vector<uint8_t> laneSynB_;      ///< Syndrome bit per (det, lane).
    std::vector<float> laneSynSign_;     ///< -0.0f where the syndrome is set.
    uint32_t laneLiveMask_ = 0;          ///< Bit l: lane l holds a shot.
    std::vector<std::vector<uint32_t>> laneFlipped_;
    std::vector<std::size_t> laneShot_;
    std::vector<std::ptrdiff_t> laneMismatch_;
    std::vector<std::ptrdiff_t> laneBest_;
    std::vector<std::size_t> laneSinceBest_;
    std::vector<std::size_t> laneIter_;
    // Packed-syndrome extraction scratch (per-shot flipped lists).
    std::vector<uint32_t> packedFlipped_;
    std::vector<uint32_t> packedOffsets_;
    std::vector<uint32_t> laneQueue_; ///< Shots laneRun decodes, in order.
};

} // namespace prophunt::decoder

#endif // PROPHUNT_DECODER_BP_OSD_H

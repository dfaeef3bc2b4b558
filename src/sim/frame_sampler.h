/**
 * @file
 * Word-packed ("frame" layout) Monte-Carlo sampling.
 *
 * A SampleBatch stores one shot per row (shot-major); this sampler
 * keeps 64 shots per machine word in detector-major order, the layout Stim
 * uses for frame simulation. Sampling still iterates error mechanisms with
 * geometric skipping, but events landing in the same 64-shot window are
 * accumulated into one shot mask and XORed into the mechanism's detector
 * and observable rows a whole word at a time.
 *
 * The packed batch is bit-identical to the scalar row sampler
 * (oracles::sampleDem in tests/support) at the same seed (both consume
 * the RNG stream through sim/event_stream.h), so the sharded pipeline
 * samples packed and hands each shard's frames straight to
 * decoder::Decoder::decodePacked without changing any sampled bit.
 */
#ifndef PROPHUNT_SIM_FRAME_SAMPLER_H
#define PROPHUNT_SIM_FRAME_SAMPLER_H

#include <cstdint>
#include <vector>

#include "sim/dem.h"

namespace prophunt::sim {

/**
 * Non-owning view of frame-layout (detector-major, 64 shots per word)
 * outcomes.
 *
 * This is the type the packed decode path consumes
 * (decoder::Decoder::decodePacked), which reads per-shot syndromes
 * straight from the detector rows (flippedDetectorLists). @p obs may be
 * null — decoding only needs detectors. Bits beyond @p shots in a row's
 * last word are padding and carry no outcome.
 */
struct FrameView
{
    const uint64_t *det = nullptr;
    const uint64_t *obs = nullptr;
    std::size_t shots = 0;
    /** Words per detector/observable row: ceil(shots / 64). */
    std::size_t shotWords = 0;
    std::size_t numDetectors = 0;
    std::size_t numObservables = 0;

    const uint64_t *
    detRow(std::size_t d) const
    {
        return det + d * shotWords;
    }

    bool
    detBit(std::size_t d, std::size_t shot) const
    {
        return (detRow(d)[shot >> 6] >> (shot & 63)) & 1;
    }
};

/** Bit-packed outcomes in frame layout: 64 shots per word, detector-major. */
struct FrameBatch
{
    std::size_t shots = 0;
    /** Words per detector/observable row: ceil(shots / 64). */
    std::size_t shotWords = 0;
    std::size_t numDetectors = 0;
    std::size_t numObservables = 0;
    /** det[d * shotWords + w]: shots (w*64)..(w*64+63) of detector d. */
    std::vector<uint64_t> det;
    /** obs[o * shotWords + w]: shots (w*64)..(w*64+63) of observable o. */
    std::vector<uint64_t> obs;

    bool
    detBit(std::size_t d, std::size_t shot) const
    {
        return (det[d * shotWords + (shot >> 6)] >> (shot & 63)) & 1;
    }

    bool
    obsBit(std::size_t o, std::size_t shot) const
    {
        return (obs[o * shotWords + (shot >> 6)] >> (shot & 63)) & 1;
    }

    /** View of this batch (obs included when present). */
    FrameView view() const;

    /**
     * Observable flip masks (first 64 observables) of every shot, read
     * straight from the frame rows into @p out — the packed pipeline's
     * replacement for transposing the observable plane.
     */
    void obsMasks(std::vector<uint64_t> &out) const;
};

/** Bit-packed detector and observable outcomes in row layout: one shot
 * per row (shot-major), as transposeView produces. */
struct SampleBatch
{
    std::size_t shots = 0;
    std::size_t detWords = 0;
    std::size_t obsWords = 0;
    /** det[shot * detWords + w]: detector bits of one shot. */
    std::vector<uint64_t> det;
    std::vector<uint64_t> obs;

    bool
    detBit(std::size_t shot, std::size_t d) const
    {
        return (det[shot * detWords + (d >> 6)] >> (d & 63)) & 1;
    }

    bool
    obsBit(std::size_t shot, std::size_t o) const
    {
        return (obs[shot * obsWords + (o >> 6)] >> (o & 63)) & 1;
    }

    /** Indices of flipped detectors for one shot. */
    std::vector<uint32_t> flippedDetectors(std::size_t shot) const;

    /**
     * Indices of flipped detectors for one shot, into a reusable buffer.
     *
     * @p out is cleared first; capacity is retained across calls, so hot
     * loops avoid one heap allocation per shot.
     */
    void flippedDetectors(std::size_t shot, std::vector<uint32_t> &out) const;

    /** Observable flip mask (first 64 observables) for one shot. */
    uint64_t obsMask(std::size_t shot) const;
};

/**
 * Sample @p shots shots from @p dem into @p out, reusing its storage.
 *
 * RNG-stream compatible with the row sampler: the same (mechanism, shot)
 * events fire at the same seed, so transposing the result reproduces the
 * scalar row batch bit for bit.
 */
void sampleDemFramesInto(const Dem &dem, std::size_t shots, uint64_t seed,
                         FrameBatch &out);

/** Allocate-and-sample convenience wrapper around sampleDemFramesInto. */
FrameBatch sampleDemFrames(const Dem &dem, std::size_t shots, uint64_t seed);

/** In-place transpose of a 64x64 bit matrix (bit j of m[i] <-> bit i of
 * m[j]). */
void transpose64x64(uint64_t m[64]);

/**
 * Transpose a frame view into a row-layout SampleBatch, reusing its
 * storage.
 *
 * A null @p view.obs leaves the observable rows zeroed.
 */
void transposeView(const FrameView &view, SampleBatch &out);

/**
 * Per-shot flipped-detector lists of a frame view, read straight from the
 * detector-major words.
 *
 * Shot s's flipped detectors are @p flipped[offsets[s] .. offsets[s + 1]),
 * in ascending order; @p offsets receives view.shots + 1 entries. Padding
 * bits beyond view.shots are ignored. Both vectors are overwritten and
 * keep their capacity.
 */
void flippedDetectorLists(const FrameView &view,
                          std::vector<uint32_t> &offsets,
                          std::vector<uint32_t> &flipped);

} // namespace prophunt::sim

#endif // PROPHUNT_SIM_FRAME_SAMPLER_H

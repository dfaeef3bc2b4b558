/**
 * @file
 * Monte-Carlo sampling of detector error models.
 *
 * Each mechanism fires independently with its probability; firing XORs its
 * detector and observable signature into the shot. Sampling iterates
 * mechanisms and uses geometric skipping across shots, so the cost is
 * proportional to the number of *events*, not mechanisms x shots.
 */
#ifndef PROPHUNT_SIM_SAMPLER_H
#define PROPHUNT_SIM_SAMPLER_H

#include <cstdint>
#include <vector>

#include "sim/dem.h"

namespace prophunt::sim {

/** Bit-packed detector and observable outcomes for a batch of shots. */
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

/** Sample @p shots shots from @p dem with the given seed. */
SampleBatch sampleDem(const Dem &dem, std::size_t shots, uint64_t seed);

} // namespace prophunt::sim

#endif // PROPHUNT_SIM_SAMPLER_H

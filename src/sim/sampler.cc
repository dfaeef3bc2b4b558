#include "sim/sampler.h"

#include <algorithm>
#include <bit>

#include "sim/event_stream.h"
#include "sim/rng.h"

namespace prophunt::sim {

std::vector<uint32_t>
SampleBatch::flippedDetectors(std::size_t shot) const
{
    std::vector<uint32_t> out;
    flippedDetectors(shot, out);
    return out;
}

void
SampleBatch::flippedDetectors(std::size_t shot,
                              std::vector<uint32_t> &out) const
{
    out.clear();
    const uint64_t *row = det.data() + shot * detWords;
    for (std::size_t w = 0; w < detWords; ++w) {
        uint64_t bits = row[w];
        while (bits) {
            out.push_back((uint32_t)((w << 6) + std::countr_zero(bits)));
            bits &= bits - 1;
        }
    }
}

uint64_t
SampleBatch::obsMask(std::size_t shot) const
{
    return obsWords == 0 ? 0 : obs[shot * obsWords];
}

SampleBatch
sampleDem(const Dem &dem, std::size_t shots, uint64_t seed)
{
    SampleBatch batch;
    batch.shots = shots;
    batch.detWords = (dem.numDetectors + 63) / 64;
    batch.obsWords = (std::max<std::size_t>(dem.numObservables, 1) + 63) / 64;
    batch.det.assign(shots * batch.detWords, 0);
    batch.obs.assign(shots * batch.obsWords, 0);
    Rng rng(seed);
    for (const ErrorMechanism &mech : dem.errors) {
        detail::forEachMechanismEvent(
            mech, shots, rng, "sampleDem", [&](std::size_t shot) {
                uint64_t *drow = batch.det.data() + shot * batch.detWords;
                for (uint32_t d : mech.detectors) {
                    drow[d >> 6] ^= uint64_t{1} << (d & 63);
                }
                uint64_t *orow = batch.obs.data() + shot * batch.obsWords;
                for (uint32_t o : mech.observables) {
                    orow[o >> 6] ^= uint64_t{1} << (o & 63);
                }
            });
    }
    return batch;
}

} // namespace prophunt::sim

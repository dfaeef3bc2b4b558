#include "decoder/decoder.h"

namespace prophunt::decoder {

void
Decoder::decodePacked(const sim::FrameView &frames, uint64_t *obs_out,
                      PackedDecodeStats *stats)
{
    // Per-call scratch: a shard decode costs far more than the
    // allocations.
    std::vector<uint32_t> offsets, flipped, shot;
    sim::flippedDetectorLists(frames, offsets, flipped);
    for (std::size_t s = 0; s < frames.shots; ++s) {
        shot.assign(flipped.begin() + offsets[s],
                    flipped.begin() + offsets[s + 1]);
        obs_out[s] = decode(shot);
    }
    if (stats != nullptr) {
        stats->adapterShots += frames.shots;
    }
}

} // namespace prophunt::decoder

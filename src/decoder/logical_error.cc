#include "decoder/logical_error.h"

namespace prophunt::decoder {

std::size_t
decodeFrameShard(Decoder &dec, const sim::FrameBatch &frames,
                 FrameShardScratch &scratch)
{
    // The expected observable masks are read from the frame rows, so no
    // shard is ever transposed. Identical bits and predictions to the
    // scalar per-shot path.
    std::size_t shard_shots = frames.shots;
    scratch.predictions.resize(shard_shots);
    scratch.stats = PackedDecodeStats{};
    dec.decodePacked(frames.view(), scratch.predictions.data(),
                     &scratch.stats);
    frames.obsMasks(scratch.obsMasks);
    std::size_t failures = 0;
    for (std::size_t s = 0; s < shard_shots; ++s) {
        if (scratch.predictions[s] != scratch.obsMasks[s]) {
            ++failures;
        }
    }
    return failures;
}

uint64_t
memoryBasisSeed(uint64_t seed, circuit::MemoryBasis basis)
{
    return seed ^
           (basis == circuit::MemoryBasis::X ? 0x9e3779b97f4a7c15ULL : 0);
}

} // namespace prophunt::decoder

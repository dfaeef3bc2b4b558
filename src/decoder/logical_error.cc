#include "decoder/logical_error.h"

#include <algorithm>
#include <cmath>

namespace prophunt::decoder {

RateInterval
LerResult::wilson95() const
{
    if (shots == 0) {
        return {};
    }
    const double z = 1.959963984540054; // Two-sided 95% normal quantile.
    double n = (double)shots, p = ler(), z2n = z * z / n;
    double center = (p + z2n / 2.0) / (1.0 + z2n);
    double half = z / (1.0 + z2n) *
                  std::sqrt(p * (1.0 - p) / n + z2n / (4.0 * n));
    RateInterval r;
    r.lo = failures == 0 ? 0.0 : std::max(0.0, center - half);
    r.hi = failures == shots ? 1.0 : std::min(1.0, center + half);
    return r;
}

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

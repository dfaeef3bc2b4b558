#include "sim/frame_sampler.h"

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

void
sampleDemFramesInto(const Dem &dem, std::size_t shots, uint64_t seed,
                    FrameBatch &out)
{
    out.shots = shots;
    out.shotWords = (shots + 63) / 64;
    out.numDetectors = dem.numDetectors;
    out.numObservables = dem.numObservables;
    out.det.assign(out.numDetectors * out.shotWords, 0);
    out.obs.assign(out.numObservables * out.shotWords, 0);

    Rng rng(seed);
    for (const ErrorMechanism &mech : dem.errors) {
        // Accumulate the mask of firing shots within one 64-shot window,
        // then XOR the window into the signature rows a word at a time.
        std::size_t word = 0;
        uint64_t mask = 0;
        auto flush = [&]() {
            if (mask == 0) {
                return;
            }
            for (uint32_t d : mech.detectors) {
                out.det[d * out.shotWords + word] ^= mask;
            }
            for (uint32_t o : mech.observables) {
                out.obs[o * out.shotWords + word] ^= mask;
            }
            mask = 0;
        };
        detail::forEachMechanismEvent(
            mech, shots, rng, "sampleDemFrames", [&](std::size_t shot) {
                std::size_t w = shot >> 6;
                if (w != word) {
                    flush();
                    word = w;
                }
                mask |= uint64_t{1} << (shot & 63);
            });
        flush();
    }
}

FrameBatch
sampleDemFrames(const Dem &dem, std::size_t shots, uint64_t seed)
{
    FrameBatch out;
    sampleDemFramesInto(dem, shots, seed, out);
    return out;
}

void
transpose64x64(uint64_t m[64])
{
    // Hacker's Delight recursive block swap (low-bit-first variant): at
    // step j, swap the upper-right and lower-left j x j sub-blocks of
    // every 2j x 2j tile.
    uint64_t mask = 0x00000000FFFFFFFFULL;
    for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
        for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
            uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
        }
    }
}

namespace {

/**
 * Transpose one plane (detector or observable rows) of a frame batch into
 * row-major storage of @p row_words words per shot.
 */
void
transposePlane(const uint64_t *frames, std::size_t rows,
               std::size_t shot_words, std::size_t shots,
               std::size_t row_words, uint64_t *out)
{
    uint64_t block[64];
    for (std::size_t rb = 0; rb < row_words; ++rb) {
        for (std::size_t w = 0; w < shot_words; ++w) {
            for (std::size_t i = 0; i < 64; ++i) {
                std::size_t row = rb * 64 + i;
                block[i] = row < rows ? frames[row * shot_words + w] : 0;
            }
            transpose64x64(block);
            std::size_t limit = std::min<std::size_t>(64, shots - w * 64);
            for (std::size_t j = 0; j < limit; ++j) {
                out[(w * 64 + j) * row_words + rb] = block[j];
            }
        }
    }
}

} // namespace

void
transposeView(const FrameView &view, SampleBatch &out)
{
    out.shots = view.shots;
    out.detWords = (view.numDetectors + 63) / 64;
    out.obsWords = (std::max<std::size_t>(view.numObservables, 1) + 63) / 64;
    out.det.resize(view.shots * out.detWords);
    out.obs.resize(view.shots * out.obsWords);
    transposePlane(view.det, view.numDetectors, view.shotWords, view.shots,
                   out.detWords, out.det.data());
    if (view.obs != nullptr) {
        transposePlane(view.obs, view.numObservables, view.shotWords,
                       view.shots, out.obsWords, out.obs.data());
    } else {
        std::fill(out.obs.begin(), out.obs.end(), 0);
    }
}

void
flippedDetectorLists(const FrameView &view, std::vector<uint32_t> &offsets,
                     std::vector<uint32_t> &flipped)
{
    // Two counting-sort passes over the set bits. Scanning detectors in
    // ascending order leaves every per-shot list sorted. The last word of
    // each row is masked to the real shots: a set padding bit would
    // otherwise index past the offsets.
    const std::size_t shots = view.shots;
    const std::size_t words = (shots + 63) / 64;
    const uint64_t lastMask =
        (shots & 63) == 0 ? ~uint64_t{0} : (uint64_t{1} << (shots & 63)) - 1;
    auto forEachFlip = [&](auto &&fn) {
        for (std::size_t d = 0; d < view.numDetectors; ++d) {
            const uint64_t *row = view.detRow(d);
            for (std::size_t w = 0; w < words; ++w) {
                uint64_t word = w + 1 == words ? row[w] & lastMask : row[w];
                while (word != 0) {
                    fn((uint32_t)d,
                       (w << 6) + (std::size_t)std::countr_zero(word));
                    word &= word - 1;
                }
            }
        }
    };
    offsets.assign(shots + 1, 0);
    forEachFlip([&](uint32_t, std::size_t s) { ++offsets[s + 1]; });
    for (std::size_t s = 0; s < shots; ++s) {
        offsets[s + 1] += offsets[s];
    }
    flipped.resize(offsets[shots]);
    // Fill with offsets[s] as shot s's cursor; afterwards offsets[s] holds
    // the start of shot s + 1, so shift the array back by one.
    forEachFlip([&](uint32_t d, std::size_t s) { flipped[offsets[s]++] = d; });
    for (std::size_t s = shots; s > 0; --s) {
        offsets[s] = offsets[s - 1];
    }
    offsets[0] = 0;
}

FrameView
FrameBatch::view() const
{
    FrameView v;
    v.det = det.data();
    v.obs = obs.empty() ? nullptr : obs.data();
    v.shots = shots;
    v.shotWords = shotWords;
    v.numDetectors = numDetectors;
    v.numObservables = numObservables;
    return v;
}

void
FrameBatch::obsMasks(std::vector<uint64_t> &out) const
{
    out.assign(shots, 0);
    std::size_t rows = std::min<std::size_t>(numObservables, 64);
    for (std::size_t o = 0; o < rows; ++o) {
        const uint64_t *row = obs.data() + o * shotWords;
        uint64_t bit = uint64_t{1} << o;
        for (std::size_t w = 0; w < shotWords; ++w) {
            uint64_t word = row[w];
            while (word != 0) {
                std::size_t shot = w * 64 + (std::size_t)std::countr_zero(word);
                out[shot] |= bit;
                word &= word - 1;
            }
        }
    }
}

} // namespace prophunt::sim

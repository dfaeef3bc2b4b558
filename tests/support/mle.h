/**
 * @file
 * Exact most-likely-error decoder for small DEMs (test oracle).
 *
 * Searches error subsets in increasing weight (then decreasing probability)
 * for one reproducing the syndrome. Exponential; only suitable for the tiny
 * models used in unit tests, where it validates the union-find and BP+OSD
 * decoders.
 */
#ifndef PROPHUNT_TESTS_SUPPORT_MLE_H
#define PROPHUNT_TESTS_SUPPORT_MLE_H

#include <cstddef>

#include "decoder/decoder.h"
#include "sim/dem.h"

namespace prophunt::oracles {

/** Brute-force MLE decoder. */
class MleDecoder : public decoder::Decoder
{
  public:
    /**
     * @param dem The model; should have at most a few dozen mechanisms.
     * @param max_weight Largest error-set size considered.
     */
    explicit MleDecoder(const sim::Dem &dem, std::size_t max_weight = 6);

    uint64_t decode(const std::vector<uint32_t> &flipped_detectors) override;

    std::unique_ptr<decoder::Decoder>
    clone() const override
    {
        return std::make_unique<MleDecoder>(*this);
    }

  private:
    const sim::Dem dem_;
    std::size_t maxWeight_;
};

} // namespace prophunt::oracles

#endif // PROPHUNT_TESTS_SUPPORT_MLE_H

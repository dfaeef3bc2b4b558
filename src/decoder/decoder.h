/**
 * @file
 * Common decoder interface.
 *
 * A decoder receives the set of flipped detectors of one shot and predicts
 * which logical observables flipped, as a bit mask (observable i = bit i).
 * The library supports up to 64 observables per memory experiment, far more
 * than any benchmark code needs (max k = 18); Registry::make rejects a
 * DEM with more.
 */
#ifndef PROPHUNT_DECODER_DECODER_H
#define PROPHUNT_DECODER_DECODER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/frame_sampler.h"

namespace prophunt::decoder {

/**
 * Counters describing how a packed decode was served.
 *
 * `packedShots` went down a native frame-layout path; `adapterShots` were
 * served by the base decodePacked, one decode() call per shot. The lane
 * counters expose the lane engine's occupancy: busy is the number of
 * (lane, BP-iteration) slots that carried a live shot, total is the lane
 * width times the iterations the engine ran. The OSD
 * counters account the lane engine's batched OSD post-pass: `osdShots`
 * is the number of shots whose lane retired without BP convergence and
 * went through the GF(2) elimination (or its scalar reference), `osdUs`
 * the wall microseconds spent inside that post-pass (posterior ranking
 * and elimination).
 */
struct PackedDecodeStats
{
    uint64_t packedShots = 0;
    uint64_t adapterShots = 0;
    uint64_t laneSlotsBusy = 0;
    uint64_t laneSlotsTotal = 0;
    uint64_t osdShots = 0;
    uint64_t osdUs = 0;

    /** Mean fraction of lanes carrying a live shot (0 when no lane ran). */
    double
    laneOccupancy() const
    {
        return laneSlotsTotal == 0
                   ? 0.0
                   : (double)laneSlotsBusy / (double)laneSlotsTotal;
    }

    PackedDecodeStats &
    operator+=(const PackedDecodeStats &o)
    {
        packedShots += o.packedShots;
        adapterShots += o.adapterShots;
        laneSlotsBusy += o.laneSlotsBusy;
        laneSlotsTotal += o.laneSlotsTotal;
        osdShots += o.osdShots;
        osdUs += o.osdUs;
        return *this;
    }
};

/** Abstract syndrome decoder. */
class Decoder
{
  public:
    virtual ~Decoder() = default;

    /**
     * Predict the observable flip mask for one shot.
     *
     * @param flipped_detectors Sorted indices of flipped detectors.
     * @return Bit mask of predicted observable flips.
     */
    virtual uint64_t decode(const std::vector<uint32_t> &flipped_detectors) = 0;

    /**
     * Decode every shot of a bit-packed, detector-major frame view.
     *
     * The one batch entry point: the sampler's frame layout flows in
     * unchanged and one observable mask per shot comes out. Must match
     * per-shot decode() bit for bit. The default implementation extracts
     * each shot's flipped detectors from the detector-major words
     * (sim::flippedDetectorLists) and calls decode() per shot, which
     * serves the per-shot decoders (union-find/matching); BP+OSD
     * overrides it with its lane engine. @p stats, when non-null, is
     * accumulated into — it is never reset here.
     */
    virtual void decodePacked(const sim::FrameView &frames, uint64_t *obs_out,
                              PackedDecodeStats *stats = nullptr);

    /**
     * Independent copy for another worker thread.
     *
     * Decode results must not depend on which copy handles a shot; scratch
     * state may be duplicated freely.
     */
    virtual std::unique_ptr<Decoder> clone() const = 0;
};

} // namespace prophunt::decoder

#endif // PROPHUNT_DECODER_DECODER_H

/**
 * @file
 * Common decoder interface.
 *
 * A decoder receives the set of flipped detectors of one shot and predicts
 * which logical observables flipped, as a bit mask (observable i = bit i).
 * The library supports up to 64 observables per memory experiment, far more
 * than any benchmark code needs (max k = 18); Registry::create rejects a
 * DEM with more.
 */
#ifndef PROPHUNT_DECODER_DECODER_H
#define PROPHUNT_DECODER_DECODER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/frame_sampler.h"
#include "sim/sampler.h"

namespace prophunt::decoder {

/**
 * Counters describing how a packed decode was served.
 *
 * `packedShots` went down a native frame-layout path; `adapterShots` were
 * transposed into row layout and routed through decodeBatch by the base
 * adapter. The lane counters expose the lane engine's occupancy: busy is
 * the number of (lane, BP-iteration) slots that carried a live shot,
 * total is laneWidth times the iterations the engine ran. The OSD
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
     * Decode shots [first, first + count) of a row-layout batch.
     *
     * Writes one predicted observable mask per shot into @p obs_out. Must
     * match per-shot decode() bit for bit; the default implementation loops
     * over decode() with a reusable flipped-detector buffer.
     */
    virtual void decodeBatch(const sim::SampleBatch &batch, std::size_t first,
                             std::size_t count, uint64_t *obs_out);

    /**
     * Decode every shot of a bit-packed, detector-major frame view.
     *
     * The packed pipeline entry point: the sampler's frame layout flows in
     * unchanged and one observable mask per shot comes out. Must match
     * per-shot decode() bit for bit. The default implementation transposes
     * the view once and falls back to decodeBatch, so row-layout decoders
     * (union-find, matching, MLE) are served unchanged; decoders with a
     * native packed path (BP+OSD lanes) override it and skip the
     * transpose. @p stats, when non-null, is accumulated into — it is
     * never reset here.
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

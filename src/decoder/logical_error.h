/**
 * @file
 * The shard-level pieces of a logical-error-rate measurement.
 *
 * The reported quantity matches the paper's evaluation: the combined
 * probability of a logical X or logical Z error over a d-round memory
 * experiment, estimated from separate memory-Z and memory-X runs.
 *
 * api::DecodeService::measure is the one Monte-Carlo LER driver: it
 * samples shard i with sim::shardSeed(seed, i), decodes it with
 * decodeFrameShard, and accounts the shards in index order. The serial
 * oracle it is tested against (oracles::measureDemLer in tests/support)
 * is built from the same two pieces.
 */
#ifndef PROPHUNT_DECODER_LOGICAL_ERROR_H
#define PROPHUNT_DECODER_LOGICAL_ERROR_H

#include <cstdint>
#include <vector>

#include "circuit/sm_circuit.h"
#include "decoder/decoder.h"
#include "sim/frame_sampler.h"
#include "sim/parallel_sampler.h"

namespace prophunt::decoder {

/** A two-sided confidence interval on a rate, within [0, 1]. */
struct RateInterval
{
    double lo = 0.0;
    double hi = 1.0;
};

/** Outcome of one Monte-Carlo LER estimate. */
struct LerResult
{
    std::size_t shots = 0;
    std::size_t failures = 0;
    /** True iff early stopping cut the run before the full shot budget. */
    bool earlyStopped = false;
    /**
     * How the counted shots were decoded (native packed vs the base
     * per-shot adapter, lane occupancy, batched-OSD shots and microseconds).
     * Accounted over the same deterministic shard prefix as
     * shots/failures, so every counter except the wall-clock osdUs is
     * thread-count invariant.
     */
    PackedDecodeStats packed;

    double
    ler() const
    {
        return shots == 0 ? 0.0 : (double)failures / (double)shots;
    }

    /** The 95% Wilson score interval of ler() (z = 1.96): [0, 1] with
     * no shots, lo = 0 with no failures, hi = 1 when every shot failed. */
    RateInterval wilson95() const;
};

/** Knobs of one Monte-Carlo LER measurement. */
struct LerOptions
{
    /**
     * Decode-service slots (concurrent shard decoders) of the
     * measurement; 0 (the default) lets every pool worker help, one per
     * core on the shared pool.
     */
    std::size_t threads = 0;
    /**
     * Stop once this many failures were seen (0 disables).
     *
     * Sequential-test style: cheap (high-LER) regimes resolve in a few
     * shards instead of burning the full shot budget. Accounting walks
     * completed shards in index order and truncates at the first shard
     * where the cumulative failure count reaches the target, so the
     * reported failures/shots are identical for every thread count.
     */
    std::size_t maxFailures = 0;
    /**
     * Shots per shard (granularity of parallelism and early stopping).
     * 0 counts as 1, and a shard larger than the run is the whole run,
     * so its one shard keeps the seed of an exact-fit plan.
     */
    std::size_t shardShots = sim::kDefaultShardShots;
};

/**
 * Per-worker storage reused across shard decodes: per-shot predictions
 * and the observable masks read straight from the frame rows.
 */
struct FrameShardScratch
{
    std::vector<uint64_t> predictions;
    std::vector<uint64_t> obsMasks;
    PackedDecodeStats stats;
};

/**
 * Decode one sampled frame shard with @p dec; returns its failure count
 * and leaves the shard's packed-path telemetry in @p scratch.stats.
 *
 * Frames flow into the decoder packed (decodePacked), the one batch
 * decode entry; no shard is transposed. The tally is a pure function of
 * (DEM, decoder, shard seed, shard shots), so any thread or clone that
 * decodes a shard gets the same one.
 */
std::size_t decodeFrameShard(Decoder &dec, const sim::FrameBatch &frames,
                             FrameShardScratch &scratch);

/** Combined memory-Z + memory-X logical error rate. */
struct MemoryLer
{
    LerResult z; ///< Memory-Z experiment (decodes X-type faults).
    LerResult x; ///< Memory-X experiment (decodes Z-type faults).

    /** P(any logical error) = 1 - (1 - p_z)(1 - p_x). */
    double
    combined() const
    {
        return 1.0 - (1.0 - z.ler()) * (1.0 - x.ler());
    }
};

/**
 * Per-basis master seed of a memory experiment: api::Engine samples
 * basis b of a request at memoryBasisSeed(seed, b).
 */
uint64_t memoryBasisSeed(uint64_t seed, circuit::MemoryBasis basis);

} // namespace prophunt::decoder

#endif // PROPHUNT_DECODER_LOGICAL_ERROR_H

/**
 * @file
 * Logical-error-rate measurement harness.
 *
 * Ties together circuit construction, DEM extraction, sampling, and
 * decoding. The reported quantity matches the paper's evaluation: the
 * combined probability of a logical X or logical Z error over a d-round
 * memory experiment, estimated from separate memory-Z and memory-X runs.
 *
 * Every Monte-Carlo LER, here or in api::DecodeService, samples shard i
 * with sim::shardSeed(seed, i), decodes it with decodeFrameShard, and
 * accounts it through ShardLedger.
 */
#ifndef PROPHUNT_DECODER_LOGICAL_ERROR_H
#define PROPHUNT_DECODER_LOGICAL_ERROR_H

#include <cstdint>
#include <mutex>
#include <vector>

#include "circuit/schedule.h"
#include "circuit/sm_circuit.h"
#include "decoder/decoder.h"
#include "decoder/registry.h"
#include "sim/dem.h"
#include "sim/frame_sampler.h"
#include "sim/noise_model.h"
#include "sim/parallel_sampler.h"

namespace prophunt::decoder {

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
};

/** Knobs for the parallel Monte-Carlo LER engine. */
struct LerOptions
{
    /** Worker threads; 0 (the default) means hardware concurrency. */
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
    /** Shots per shard (granularity of parallelism and early stopping). */
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
 * decode entry; no shard is transposed. The one shard-tally
 * computation shared by measureDemLer and api::DecodeService: the tally
 * is a pure function of (DEM, decoder, shard seed, shard shots), so any
 * thread or clone that decodes a shard gets the same one.
 */
std::size_t decodeFrameShard(Decoder &dec, const sim::FrameBatch &frames,
                             FrameShardScratch &scratch);

/**
 * The shard accounting of one LER run, shared by measureDemLer and
 * api::DecodeService::measure.
 *
 * Holds the run's shard plan (a shard larger than the run is one shard,
 * so shard seeds match an exact-fit plan), each completed shard's
 * tally, and the contiguous completed prefix that drives early
 * stopping. Shards may complete in any order; result() walks them in
 * index order, so the answer does not depend on which thread finished
 * what. record() may be called concurrently.
 */
class ShardLedger
{
  public:
    ShardLedger(std::size_t shots, const LerOptions &opts);

    const sim::ShardPlan &
    plan() const
    {
        return plan_;
    }

    /**
     * Record shard @p shard's tally. Returns true once the contiguous
     * completed prefix has reached opts.maxFailures: no later shard can
     * change the result, so the caller may stop claiming shards.
     */
    bool record(std::size_t shard, std::size_t failures,
                const PackedDecodeStats &stats);

    /**
     * Completed shards in index order, truncated at the first missing
     * shard or at the shard whose cumulative failures reach
     * opts.maxFailures. Shards completed beyond the cut are discarded.
     */
    LerResult result() const;

  private:
    sim::ShardPlan plan_;
    std::size_t maxFailures_;
    std::mutex mutex_;
    std::vector<std::size_t> failures_;
    std::vector<PackedDecodeStats> stats_;
    std::vector<uint8_t> done_;
    std::size_t prefixEnd_ = 0;
    std::size_t prefixFailures_ = 0;
};

/**
 * Sample the DEM and decode each shot; failures are observable misses.
 *
 * Shard i samples with sim::shardSeed(seed, i) and shards run on
 * sim::WorkerPool::shared(): the result is bit-identical for every
 * thread count at a fixed master seed. Throws std::invalid_argument on
 * a mechanism with p >= 1 before any shard runs.
 */
LerResult measureDemLer(const sim::Dem &dem, Decoder &dec, std::size_t shots,
                        uint64_t seed, const LerOptions &opts = {});

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
 * Per-basis master seed of a memory experiment.
 *
 * measureMemoryLer and api::Engine both derive the Z/X sampling seeds
 * through this function, so their results are bit-identical at a fixed
 * request seed.
 */
uint64_t memoryBasisSeed(uint64_t seed, circuit::MemoryBasis basis);

/**
 * Measure the combined LER of a schedule over @p rounds rounds.
 *
 * Runs both memory bases with @p shots shots each; the decoder is built
 * by Registry::make from @p spec. Workloads that repeat (schedule, p)
 * points should prefer api::Engine, which caches the per-basis DEM and
 * decoder this function rebuilds on every call.
 */
MemoryLer measureMemoryLer(const circuit::SmSchedule &schedule,
                           std::size_t rounds, const sim::NoiseModel &noise,
                           const DecoderSpec &spec, std::size_t shots,
                           uint64_t seed, const LerOptions &opts = {});

} // namespace prophunt::decoder

#endif // PROPHUNT_DECODER_LOGICAL_ERROR_H

/**
 * @file
 * Logical-error-rate measurement harness.
 *
 * Ties together circuit construction, DEM extraction, sampling, and
 * decoding. The reported quantity matches the paper's evaluation: the
 * combined probability of a logical X or logical Z error over a d-round
 * memory experiment, estimated from separate memory-Z and memory-X runs.
 */
#ifndef PROPHUNT_DECODER_LOGICAL_ERROR_H
#define PROPHUNT_DECODER_LOGICAL_ERROR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/schedule.h"
#include "circuit/sm_circuit.h"
#include "decoder/decoder.h"
#include "decoder/registry.h"
#include "sim/dem.h"
#include "sim/noise_model.h"
#include "sim/parallel_sampler.h"

namespace prophunt::decoder {

/** Build a decoder for a DEM through the registry. */
std::unique_ptr<Decoder> makeDecoder(const sim::Dem &dem,
                                     const circuit::SmCircuit &circuit,
                                     const DecoderSpec &spec);

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
 * computation shared by measureDemLer and api::DecodeService — a tally
 * recorded under (DEM, decoder, shard seed, shard shots) is bit-exact
 * reusable wherever the same tuple recurs.
 */
std::size_t decodeFrameShard(Decoder &dec, const sim::FrameBatch &frames,
                             FrameShardScratch &scratch);

/**
 * Sample the DEM and decode each shot; failures are observable misses.
 *
 * Shots are sharded as in sim::forEachFrameShard: the result is
 * bit-identical for every thread count at a fixed master seed.
 */
LerResult measureDemLer(const sim::Dem &dem, Decoder &dec, std::size_t shots,
                        uint64_t seed, const LerOptions &opts);

/** Single-thread, no-early-stop convenience overload. */
LerResult measureDemLer(const sim::Dem &dem, Decoder &dec, std::size_t shots,
                        uint64_t seed);

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
 * through the registry from @p spec. Workloads that repeat (schedule, p)
 * points should prefer api::Engine, which caches the per-basis circuit,
 * DEM, and decoder this function rebuilds on every call.
 */
MemoryLer measureMemoryLer(const circuit::SmSchedule &schedule,
                           std::size_t rounds, const sim::NoiseModel &noise,
                           const DecoderSpec &spec, std::size_t shots,
                           uint64_t seed, const LerOptions &opts);

/** No-early-stop convenience overload. */
MemoryLer measureMemoryLer(const circuit::SmSchedule &schedule,
                           std::size_t rounds, const sim::NoiseModel &noise,
                           const DecoderSpec &spec, std::size_t shots,
                           uint64_t seed);

} // namespace prophunt::decoder

#endif // PROPHUNT_DECODER_LOGICAL_ERROR_H

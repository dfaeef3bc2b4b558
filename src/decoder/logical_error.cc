#include "decoder/logical_error.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/parallel_sampler.h"
#include "sim/sampler.h"

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

LerResult
measureDemLer(const sim::Dem &dem, Decoder &dec, std::size_t shots,
              uint64_t seed, const LerOptions &opts)
{
    LerResult result;
    if (shots == 0) {
        // Well-formed empty run: no sampling, no decoder work, zeroed
        // counters (the engine relies on this for zero-shot requests).
        return result;
    }
    // A shard larger than the run is just one shard; clamping keeps the
    // shard seeds identical to an exact-fit plan.
    sim::ShardPlan plan{
        shots, std::min(std::max<std::size_t>(opts.shardShots, 1), shots)};
    std::size_t n = plan.numShards();

    // Per-worker decoders: worker 0 uses the caller's, the rest clones.
    std::size_t workers = sim::shardWorkers(plan, opts.threads);
    std::vector<std::unique_ptr<Decoder>> clones;
    clones.reserve(workers > 0 ? workers - 1 : 0);
    for (std::size_t w = 1; w < workers; ++w) {
        clones.push_back(dec.clone());
    }

    std::vector<FrameShardScratch> workspaces(workers);
    std::vector<std::size_t> shardFailures(n, 0);
    std::vector<PackedDecodeStats> shardStats(n);
    std::vector<uint8_t> shardDone(n, 0);
    std::atomic<bool> stop{false};
    std::mutex prefixMutex;
    std::size_t prefixEnd = 0;
    std::size_t prefixFailures = 0;

    // forEachFrameShard validates the DEM before spawning workers and
    // hands each shard to the decoder still word-packed.
    sim::forEachFrameShard(
        dem, plan, seed, opts.threads,
        [&](std::size_t shard, std::size_t worker,
            const sim::FrameBatch &frames) {
            Decoder &d = worker == 0 ? dec : *clones[worker - 1];
            FrameShardScratch &ws = workspaces[worker];
            std::size_t f = decodeFrameShard(d, frames, ws);
            std::lock_guard<std::mutex> lock(prefixMutex);
            shardFailures[shard] = f;
            shardStats[shard] = ws.stats;
            shardDone[shard] = 1;
            // Advance the contiguous completed prefix; early stopping only
            // triggers off in-order results so the final accounting below
            // sees every shard up to the cut point.
            while (prefixEnd < n && shardDone[prefixEnd]) {
                prefixFailures += shardFailures[prefixEnd];
                ++prefixEnd;
            }
            if (opts.maxFailures != 0 && prefixFailures >= opts.maxFailures) {
                stop.store(true, std::memory_order_relaxed);
            }
        },
        opts.maxFailures != 0 ? &stop : nullptr);

    // Deterministic accounting: walk shards in index order and truncate at
    // the first shard whose cumulative failures reach the target. Shards a
    // fast worker finished beyond the cut are discarded, which makes
    // failures/shots — and the packed-path telemetry — independent of the
    // thread count.
    for (std::size_t shard = 0; shard < n; ++shard) {
        if (!shardDone[shard]) {
            break;
        }
        result.shots += plan.shotsOf(shard);
        result.failures += shardFailures[shard];
        result.packed += shardStats[shard];
        if (opts.maxFailures != 0 && result.failures >= opts.maxFailures) {
            result.earlyStopped = shard + 1 < n;
            break;
        }
    }
    return result;
}

LerResult
measureDemLer(const sim::Dem &dem, Decoder &dec, std::size_t shots,
              uint64_t seed)
{
    return measureDemLer(dem, dec, shots, seed, LerOptions{});
}

uint64_t
memoryBasisSeed(uint64_t seed, circuit::MemoryBasis basis)
{
    return seed ^
           (basis == circuit::MemoryBasis::X ? 0x9e3779b97f4a7c15ULL : 0);
}

MemoryLer
measureMemoryLer(const circuit::SmSchedule &schedule, std::size_t rounds,
                 const sim::NoiseModel &noise, const DecoderSpec &spec,
                 std::size_t shots, uint64_t seed, const LerOptions &opts)
{
    MemoryLer out;
    for (auto basis : {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
        circuit::SmCircuit circ =
            circuit::buildMemoryCircuit(schedule, rounds, basis);
        sim::Dem dem = sim::buildDem(circ, noise);
        auto dec = Registry::make(spec, dem, circ);
        LerResult r = measureDemLer(dem, *dec, shots,
                                    memoryBasisSeed(seed, basis), opts);
        (basis == circuit::MemoryBasis::Z ? out.z : out.x) = r;
    }
    return out;
}

MemoryLer
measureMemoryLer(const circuit::SmSchedule &schedule, std::size_t rounds,
                 const sim::NoiseModel &noise, const DecoderSpec &spec,
                 std::size_t shots, uint64_t seed)
{
    return measureMemoryLer(schedule, rounds, noise, spec, shots, seed,
                            LerOptions{});
}

} // namespace prophunt::decoder

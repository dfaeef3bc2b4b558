#include "decoder/logical_error.h"

#include <algorithm>
#include <atomic>
#include <memory>
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

ShardLedger::ShardLedger(std::size_t shots, const LerOptions &opts)
    : plan_{shots, std::min(std::max<std::size_t>(opts.shardShots, 1),
                            shots)},
      maxFailures_(opts.maxFailures), failures_(plan_.numShards(), 0),
      stats_(plan_.numShards()), done_(plan_.numShards(), 0)
{
}

bool
ShardLedger::record(std::size_t shard, std::size_t failures,
                    const PackedDecodeStats &stats)
{
    std::lock_guard<std::mutex> lock(mutex_);
    failures_[shard] = failures;
    stats_[shard] = stats;
    done_[shard] = 1;
    // Early stopping only triggers off in-order results, so the final
    // walk sees every shard up to the cut point.
    while (prefixEnd_ < done_.size() && done_[prefixEnd_]) {
        prefixFailures_ += failures_[prefixEnd_];
        ++prefixEnd_;
    }
    return maxFailures_ != 0 && prefixFailures_ >= maxFailures_;
}

LerResult
ShardLedger::result() const
{
    LerResult result;
    const std::size_t n = done_.size();
    for (std::size_t shard = 0; shard < n && done_[shard]; ++shard) {
        result.shots += plan_.shotsOf(shard);
        result.failures += failures_[shard];
        result.packed += stats_[shard];
        if (maxFailures_ != 0 && result.failures >= maxFailures_) {
            result.earlyStopped = shard + 1 < n;
            break;
        }
    }
    return result;
}

LerResult
measureDemLer(const sim::Dem &dem, Decoder &dec, std::size_t shots,
              uint64_t seed, const LerOptions &opts)
{
    if (shots == 0) {
        // Well-formed empty run: no sampling, no decoder work, zeroed
        // counters (the engine relies on this for zero-shot requests).
        return {};
    }
    // A throw inside a pool worker would terminate: validate up front.
    sim::validateDemProbabilities(dem, "measureDemLer");
    ShardLedger ledger(shots, opts);
    const sim::ShardPlan &plan = ledger.plan();

    // Slot 0 decodes with the caller's decoder, every other slot with
    // its own clone.
    const std::size_t slots =
        std::min(sim::resolveThreads(opts.threads), plan.numShards());
    std::vector<std::unique_ptr<Decoder>> clones(slots);
    for (std::size_t slot = 1; slot < slots; ++slot) {
        clones[slot] = dec.clone();
    }
    std::vector<sim::FrameBatch> frames(slots);
    std::vector<FrameShardScratch> scratch(slots);
    std::atomic<bool> stop{false};
    sim::WorkerPool::shared().run(
        plan.numShards(), slots,
        [&](std::size_t shard, std::size_t slot) {
            sim::sampleDemFramesInto(dem, plan.shotsOf(shard),
                                     sim::shardSeed(seed, shard),
                                     frames[slot]);
            Decoder &d = slot == 0 ? dec : *clones[slot];
            std::size_t f = decodeFrameShard(d, frames[slot], scratch[slot]);
            if (ledger.record(shard, f, scratch[slot].stats)) {
                stop.store(true, std::memory_order_relaxed);
            }
        },
        &stop);
    return ledger.result();
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

} // namespace prophunt::decoder

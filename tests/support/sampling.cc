#include "support/sampling.h"

#include <algorithm>

#include "api/decode_service.h"
#include "circuit/sm_circuit.h"
#include "sim/dem_builder.h"
#include "sim/event_stream.h"
#include "sim/parallel_sampler.h"
#include "sim/rng.h"

namespace prophunt::oracles {

sim::SampleBatch
sampleDem(const sim::Dem &dem, std::size_t shots, uint64_t seed)
{
    sim::SampleBatch batch;
    batch.shots = shots;
    batch.detWords = (dem.numDetectors + 63) / 64;
    batch.obsWords = (std::max<std::size_t>(dem.numObservables, 1) + 63) / 64;
    batch.det.assign(shots * batch.detWords, 0);
    batch.obs.assign(shots * batch.obsWords, 0);
    sim::Rng rng(seed);
    for (const sim::ErrorMechanism &mech : dem.errors) {
        sim::detail::forEachMechanismEvent(
            mech, shots, rng, "sampleDem", [&](std::size_t shot) {
                uint64_t *drow = batch.det.data() + shot * batch.detWords;
                for (uint32_t d : mech.detectors) {
                    drow[d >> 6] ^= uint64_t{1} << (d & 63);
                }
                uint64_t *orow = batch.obs.data() + shot * batch.obsWords;
                for (uint32_t o : mech.observables) {
                    orow[o >> 6] ^= uint64_t{1} << (o & 63);
                }
            });
    }
    return batch;
}

decoder::LerResult
measureDemLer(const sim::Dem &dem, decoder::Decoder &dec, std::size_t shots,
              uint64_t seed, const decoder::LerOptions &opts)
{
    const std::size_t shard_shots = std::max<std::size_t>(opts.shardShots, 1);
    decoder::LerResult result;
    sim::FrameBatch frames;
    decoder::FrameShardScratch scratch;
    for (std::size_t shard = 0; result.shots < shots; ++shard) {
        std::size_t n = std::min(shard_shots, shots - result.shots);
        sim::sampleDemFramesInto(dem, n, sim::shardSeed(seed, shard), frames);
        result.failures += decoder::decodeFrameShard(dec, frames, scratch);
        result.shots += n;
        result.packed += scratch.stats;
        if (opts.maxFailures != 0 && result.failures >= opts.maxFailures) {
            result.earlyStopped = result.shots < shots;
            break;
        }
    }
    return result;
}

decoder::MemoryLer
measureMemoryLer(const circuit::SmSchedule &schedule, std::size_t rounds,
                 const sim::NoiseModel &noise,
                 const decoder::DecoderSpec &spec, std::size_t shots,
                 uint64_t seed, const decoder::LerOptions &opts)
{
    decoder::MemoryLer out;
    for (auto basis : {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
        circuit::SmCircuit circ =
            circuit::buildMemoryCircuit(schedule, rounds, basis);
        sim::Dem dem = sim::buildDem(circ, noise);
        auto dec = decoder::Registry::make(spec, dem, circ);
        (basis == circuit::MemoryBasis::Z ? out.z : out.x) = measureDemLer(
            dem, *dec, shots, decoder::memoryBasisSeed(seed, basis), opts);
    }
    return out;
}

decoder::LerResult
serviceMeasure(const sim::Dem &dem, const decoder::Decoder &prototype,
               std::size_t shots, uint64_t seed,
               const decoder::LerOptions &opts)
{
    api::DecodeServiceOptions pool;
    pool.threads = opts.threads > 1 ? opts.threads - 1 : 0;
    api::DecodeService service(pool);
    api::DecodeJob job;
    job.key = "serviceMeasure";
    job.dem = &dem;
    job.prototype = &prototype;
    job.shots = shots;
    job.seed = seed;
    job.ler = opts;
    return service.measure(job).result;
}

} // namespace prophunt::oracles

/**
 * @file
 * Serial reference samplers that the LER and sampler tests compare
 * libprophunt against (test support, not libprophunt).
 *
 *  - sampleDem is the shot-major row sampler: one RNG stream, one row
 *    per shot. The frame sampler must reproduce it bit for bit.
 *  - measureDemLer is the LER oracle, a plain serial loop. Shard i
 *    samples with sim::shardSeed(seed, i) and is decoded by
 *    decoder::decodeFrameShard, and the loop stops after the shard
 *    whose cumulative failures reach opts.maxFailures.
 *    api::DecodeService::measure must return the same result at every
 *    thread count.
 *  - serviceMeasure runs one job through a fresh api::DecodeService, the
 *    production side of those comparisons.
 */
#ifndef PROPHUNT_TESTS_SUPPORT_SAMPLING_H
#define PROPHUNT_TESTS_SUPPORT_SAMPLING_H

#include <cstddef>
#include <cstdint>

#include "circuit/schedule.h"
#include "decoder/logical_error.h"
#include "decoder/registry.h"
#include "sim/dem.h"
#include "sim/frame_sampler.h"
#include "sim/noise_model.h"

namespace prophunt::oracles {

/**
 * Sample @p shots shots from @p dem with the given seed, one row per
 * shot. Mechanisms are iterated with geometric skipping across shots,
 * so the cost is proportional to the number of events. Throws
 * std::invalid_argument on a mechanism with p >= 1.
 */
sim::SampleBatch sampleDem(const sim::Dem &dem, std::size_t shots,
                           uint64_t seed);

/**
 * The serial LER oracle. opts.threads is ignored; a shard size of 0
 * counts as 1, and the last shard is cut to the shots left.
 */
decoder::LerResult measureDemLer(const sim::Dem &dem, decoder::Decoder &dec,
                                 std::size_t shots, uint64_t seed,
                                 const decoder::LerOptions &opts = {});

/**
 * The serial oracle of api::Engine::run(LerRequest): both memory bases
 * of @p schedule, basis b sampled at decoder::memoryBasisSeed(seed, b)
 * with a decoder built by Registry::make from @p spec.
 */
decoder::MemoryLer measureMemoryLer(const circuit::SmSchedule &schedule,
                                    std::size_t rounds,
                                    const sim::NoiseModel &noise,
                                    const decoder::DecoderSpec &spec,
                                    std::size_t shots, uint64_t seed,
                                    const decoder::LerOptions &opts = {});

/**
 * api::DecodeService::measure of one job on (@p dem, @p prototype). The
 * service gets a dedicated pool of opts.threads - 1 workers, so each of
 * its opts.threads slots is a real thread, even on a one-core machine.
 */
decoder::LerResult serviceMeasure(const sim::Dem &dem,
                                  const decoder::Decoder &prototype,
                                  std::size_t shots, uint64_t seed,
                                  const decoder::LerOptions &opts);

} // namespace prophunt::oracles

#endif // PROPHUNT_TESTS_SUPPORT_SAMPLING_H

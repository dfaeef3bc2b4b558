/**
 * @file
 * Determinism guarantees of the sharded frame sampler and the LER driver
 * (api::DecodeService, api::Engine).
 *
 * The contract under test: at a fixed master seed, the sharded result is
 * defined as the concatenation of independent per-shard serial runs (the
 * serial oracle in tests/support), so it must be byte-identical for every
 * thread count — including when early stopping truncates the run.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "api/engine.h"
#include "circuit/coloration.h"
#include "code/surface.h"
#include "decoder/logical_error.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/parallel_sampler.h"
#include "support/sampling.h"

using namespace prophunt;
using namespace prophunt::sim;

namespace {

Dem
d3Dem(double p)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            3, circuit::MemoryBasis::Z);
    return buildDem(circ, NoiseModel::uniform(p));
}

std::unique_ptr<decoder::Decoder>
d3Decoder(const Dem &dem)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            3, circuit::MemoryBasis::Z);
    return decoder::Registry::make("union_find", dem, circ);
}

/**
 * Every shard of @p shots sampled word-packed with its own shard seed,
 * transposed to rows and concatenated in shard order.
 */
SampleBatch
frameShardRows(const Dem &dem, std::size_t shots, uint64_t seed,
               std::size_t shard_shots)
{
    ShardPlan plan{shots, shard_shots};
    std::vector<SampleBatch> parts(plan.numShards());
    FrameBatch frames;
    for (std::size_t i = 0; i < plan.numShards(); ++i) {
        sampleDemFramesInto(dem, plan.shotsOf(i), shardSeed(seed, i), frames);
        transposeView(frames.view(), parts[i]);
    }
    SampleBatch whole = parts.front();
    whole.shots = shots;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const SampleBatch &part = parts[i];
        whole.det.insert(whole.det.end(), part.det.begin(), part.det.end());
        whole.obs.insert(whole.obs.end(), part.obs.begin(), part.obs.end());
    }
    return whole;
}

} // namespace

TEST(ShardPlan, CoversShotsExactlyOnce)
{
    ShardPlan plan{10000, 4096};
    EXPECT_EQ(plan.numShards(), 3u);
    EXPECT_EQ(plan.shotsOf(0), 4096u);
    EXPECT_EQ(plan.shotsOf(1), 4096u);
    EXPECT_EQ(plan.shotsOf(2), 10000u - 2 * 4096u);
    EXPECT_EQ(plan.offsetOf(2), 8192u);
    std::size_t total = 0;
    for (std::size_t i = 0; i < plan.numShards(); ++i) {
        total += plan.shotsOf(i);
    }
    EXPECT_EQ(total, plan.shots);

    EXPECT_EQ((ShardPlan{0, 4096}).numShards(), 0u);
    EXPECT_EQ((ShardPlan{4096, 4096}).numShards(), 1u);
    EXPECT_EQ((ShardPlan{1, 4096}).shotsOf(0), 1u);
}

TEST(ShardSeed, MatchesSplitMix64Sequence)
{
    uint64_t state = 12345;
    for (std::size_t shard = 0; shard < 8; ++shard) {
        EXPECT_EQ(splitMix64(state), shardSeed(12345, shard)) << shard;
    }
    // Distinct shards get distinct streams.
    EXPECT_NE(shardSeed(1, 0), shardSeed(1, 1));
    EXPECT_NE(shardSeed(1, 0), shardSeed(2, 0));
}

TEST(ShardedSampler, SameSeedGivesByteIdenticalBatch)
{
    Dem dem = d3Dem(1e-2);
    SampleBatch a = frameShardRows(dem, 5000, 9, 512);
    SampleBatch b = frameShardRows(dem, 5000, 9, 512);
    EXPECT_EQ(a.det, b.det);
    EXPECT_EQ(a.obs, b.obs);
    SampleBatch c = frameShardRows(dem, 5000, 10, 512);
    EXPECT_NE(a.det, c.det);
}

TEST(ShardedSampler, EqualsConcatenatedSerialShardRuns)
{
    Dem dem = d3Dem(5e-3);
    std::size_t shard_shots = 300;
    std::size_t shots = 1000; // 3 full shards + 1 short shard.
    SampleBatch whole = frameShardRows(dem, shots, 7, shard_shots);
    ShardPlan plan{shots, shard_shots};
    for (std::size_t i = 0; i < plan.numShards(); ++i) {
        SampleBatch part =
            oracles::sampleDem(dem, plan.shotsOf(i), shardSeed(7, i));
        for (std::size_t s = 0; s < part.shots; ++s) {
            std::size_t w = plan.offsetOf(i) + s;
            EXPECT_EQ(whole.flippedDetectors(w), part.flippedDetectors(s));
            EXPECT_EQ(whole.obsMask(w), part.obsMask(s));
        }
    }
}

TEST(ParallelLer, ThreadCountDoesNotChangeFailuresOrShots)
{
    Dem dem = d3Dem(3e-3);
    auto dec = d3Decoder(dem);
    decoder::LerOptions opts;
    opts.shardShots = 256; // Many shards so threads genuinely interleave.
    decoder::LerResult serial =
        oracles::measureDemLer(dem, *dec, 8000, 77, opts);
    EXPECT_EQ(serial.shots, 8000u);
    for (std::size_t threads : {1u, 2u, 4u}) {
        opts.threads = threads;
        decoder::LerResult par =
            oracles::serviceMeasure(dem, *dec, 8000, 77, opts);
        EXPECT_EQ(serial.failures, par.failures) << threads << " threads";
        EXPECT_EQ(serial.shots, par.shots) << threads << " threads";
    }
}

TEST(ParallelLer, EarlyStoppingIsThreadCountIndependent)
{
    // High p: failures are frequent, so a small target cuts the run early.
    Dem dem = d3Dem(1e-2);
    auto dec = d3Decoder(dem);
    decoder::LerOptions opts;
    opts.shardShots = 128;
    opts.maxFailures = 20;
    decoder::LerResult serial =
        oracles::measureDemLer(dem, *dec, 50000, 5, opts);
    EXPECT_TRUE(serial.earlyStopped);
    EXPECT_LT(serial.shots, 50000u);
    EXPECT_GE(serial.failures, 20u);
    for (std::size_t threads : {1u, 2u, 4u}) {
        opts.threads = threads;
        decoder::LerResult par =
            oracles::serviceMeasure(dem, *dec, 50000, 5, opts);
        EXPECT_EQ(serial.failures, par.failures) << threads << " threads";
        EXPECT_EQ(serial.shots, par.shots) << threads << " threads";
        EXPECT_EQ(serial.earlyStopped, par.earlyStopped)
            << threads << " threads";
    }
}

TEST(ParallelLer, ClonedDecoderAgreesWithOriginal)
{
    Dem dem = d3Dem(5e-3);
    auto dec = d3Decoder(dem);
    auto copy = dec->clone();
    SampleBatch batch = oracles::sampleDem(dem, 500, 21);
    for (std::size_t s = 0; s < batch.shots; ++s) {
        auto flipped = batch.flippedDetectors(s);
        EXPECT_EQ(dec->decode(flipped), copy->decode(flipped));
    }
}

TEST(ParallelLer, MemoryLerThreadCountIndependent)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    api::LerRequest req(circuit::colorationSchedule(cp));
    req.rounds = 3;
    req.noise = NoiseModel::uniform(3e-3);
    req.decoder = "union_find";
    req.shots = 4000;
    req.seed = 11;
    req.ler.shardShots = 256;
    auto want = oracles::measureMemoryLer(req.schedule, 3, req.noise,
                                          req.decoder, 4000, 11, req.ler);
    api::EngineOptions eopts;
    eopts.service.threads = 3; // Dedicated pool: 4 slots are 4 threads.
    api::Engine engine(eopts);
    for (std::size_t threads : {1u, 2u, 4u}) {
        req.ler.threads = threads;
        decoder::MemoryLer got = engine.run(req).memory;
        EXPECT_EQ(want.z.failures, got.z.failures) << threads << " threads";
        EXPECT_EQ(want.x.failures, got.x.failures) << threads << " threads";
        EXPECT_EQ(want.combined(), got.combined()) << threads << " threads";
    }
}

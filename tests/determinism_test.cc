/**
 * @file
 * Determinism guarantees of the sharded frame sampler and parallel LER
 * engine.
 *
 * The contract under test: at a fixed master seed, the sharded result is
 * defined as the concatenation of independent per-shard serial runs, so it
 * must be byte-identical for every thread count — including when early
 * stopping truncates the run.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "circuit/coloration.h"
#include "code/surface.h"
#include "decoder/logical_error.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/parallel_sampler.h"
#include "sim/sampler.h"

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
 * Every shard of a forEachFrameShard run, transposed to rows and
 * concatenated in shard order.
 */
SampleBatch
frameShardRows(const Dem &dem, std::size_t shots, uint64_t seed,
               std::size_t threads, std::size_t shard_shots)
{
    ShardPlan plan{shots, shard_shots};
    std::vector<SampleBatch> parts(plan.numShards());
    forEachFrameShard(dem, plan, seed, threads,
                      [&](std::size_t shard, std::size_t,
                          const FrameBatch &frames) {
                          transposeView(frames.view(), parts[shard]);
                      });
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
    SampleBatch a = frameShardRows(dem, 5000, 9, 1, 512);
    SampleBatch b = frameShardRows(dem, 5000, 9, 1, 512);
    EXPECT_EQ(a.det, b.det);
    EXPECT_EQ(a.obs, b.obs);
    SampleBatch c = frameShardRows(dem, 5000, 10, 1, 512);
    EXPECT_NE(a.det, c.det);
}

TEST(ShardedSampler, ThreadCountDoesNotChangeTheBatch)
{
    Dem dem = d3Dem(1e-2);
    SampleBatch serial = frameShardRows(dem, 10000, 42, 1, 512);
    for (std::size_t threads : {2u, 4u, 8u}) {
        SampleBatch par = frameShardRows(dem, 10000, 42, threads, 512);
        EXPECT_EQ(serial.det, par.det) << threads << " threads";
        EXPECT_EQ(serial.obs, par.obs) << threads << " threads";
    }
}

TEST(ShardedSampler, EqualsConcatenatedSerialShardRuns)
{
    Dem dem = d3Dem(5e-3);
    std::size_t shard_shots = 300;
    std::size_t shots = 1000; // 3 full shards + 1 short shard.
    SampleBatch whole = frameShardRows(dem, shots, 7, 4, shard_shots);
    ShardPlan plan{shots, shard_shots};
    for (std::size_t i = 0; i < plan.numShards(); ++i) {
        SampleBatch part =
            sampleDem(dem, plan.shotsOf(i), shardSeed(7, i));
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
    decoder::LerOptions base;
    base.shardShots = 256; // Many shards so threads genuinely interleave.
    base.threads = 1;
    decoder::LerResult serial =
        decoder::measureDemLer(dem, *dec, 8000, 77, base);
    EXPECT_EQ(serial.shots, 8000u);
    for (std::size_t threads : {2u, 4u, 8u}) {
        decoder::LerOptions opts = base;
        opts.threads = threads;
        decoder::LerResult par =
            decoder::measureDemLer(dem, *dec, 8000, 77, opts);
        EXPECT_EQ(serial.failures, par.failures) << threads << " threads";
        EXPECT_EQ(serial.shots, par.shots) << threads << " threads";
    }
}

TEST(ParallelLer, EarlyStoppingIsThreadCountIndependent)
{
    // High p: failures are frequent, so a small target cuts the run early.
    Dem dem = d3Dem(1e-2);
    auto dec = d3Decoder(dem);
    decoder::LerOptions base;
    base.shardShots = 128;
    base.maxFailures = 20;
    base.threads = 1;
    decoder::LerResult serial =
        decoder::measureDemLer(dem, *dec, 50000, 5, base);
    EXPECT_TRUE(serial.earlyStopped);
    EXPECT_LT(serial.shots, 50000u);
    EXPECT_GE(serial.failures, 20u);
    for (std::size_t threads : {2u, 4u, 8u}) {
        decoder::LerOptions opts = base;
        opts.threads = threads;
        decoder::LerResult par =
            decoder::measureDemLer(dem, *dec, 50000, 5, opts);
        EXPECT_EQ(serial.failures, par.failures) << threads << " threads";
        EXPECT_EQ(serial.shots, par.shots) << threads << " threads";
        EXPECT_EQ(serial.earlyStopped, par.earlyStopped)
            << threads << " threads";
    }
}

TEST(ParallelLer, LegacyOverloadMatchesDefaultOptions)
{
    Dem dem = d3Dem(3e-3);
    auto dec = d3Decoder(dem);
    decoder::LerResult a = decoder::measureDemLer(dem, *dec, 4000, 3);
    decoder::LerResult b =
        decoder::measureDemLer(dem, *dec, 4000, 3, decoder::LerOptions{});
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.shots, b.shots);
}

TEST(ParallelLer, ClonedDecoderAgreesWithOriginal)
{
    Dem dem = d3Dem(5e-3);
    auto dec = d3Decoder(dem);
    auto copy = dec->clone();
    SampleBatch batch = sampleDem(dem, 500, 21);
    for (std::size_t s = 0; s < batch.shots; ++s) {
        auto flipped = batch.flippedDetectors(s);
        EXPECT_EQ(dec->decode(flipped), copy->decode(flipped));
    }
}

TEST(ParallelLer, MemoryLerThreadCountIndependent)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    auto sched = circuit::colorationSchedule(cp);
    decoder::LerOptions one;
    one.threads = 1;
    one.shardShots = 256;
    decoder::LerOptions four = one;
    four.threads = 4;
    auto a = decoder::measureMemoryLer(sched, 3, NoiseModel::uniform(3e-3),
                                       "union_find", 4000,
                                       11, one);
    auto b = decoder::measureMemoryLer(sched, 3, NoiseModel::uniform(3e-3),
                                       "union_find", 4000,
                                       11, four);
    EXPECT_EQ(a.z.failures, b.z.failures);
    EXPECT_EQ(a.x.failures, b.x.failures);
    EXPECT_EQ(a.combined(), b.combined());
}

/**
 * @file
 * Word-packed frame sampler: transpose correctness, bit-identity with the
 * scalar row sampler, and statistical fidelity of the packed event stream.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "circuit/coloration.h"
#include "code/codes.h"
#include "code/surface.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/parallel_sampler.h"
#include "sim/rng.h"
#include "support/sampling.h"

using namespace prophunt;
using namespace prophunt::sim;
using namespace prophunt::oracles;

namespace {

Dem
circuitDem(double p)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            3, circuit::MemoryBasis::Z);
    return buildDem(circ, NoiseModel::uniform(p));
}

Dem
ldpcDem(code::CssCode (*build)(), std::size_t rounds, double p)
{
    auto cp = std::make_shared<const code::CssCode>(build());
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            rounds, circuit::MemoryBasis::Z);
    return buildDem(circ, NoiseModel::uniform(p));
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

TEST(Transpose64, MatchesNaiveBitTranspose)
{
    Rng rng(7);
    for (int trial = 0; trial < 8; ++trial) {
        uint64_t m[64], orig[64];
        for (auto &w : m) {
            w = rng.next();
        }
        std::copy(std::begin(m), std::end(m), std::begin(orig));
        transpose64x64(m);
        for (int i = 0; i < 64; ++i) {
            for (int j = 0; j < 64; ++j) {
                EXPECT_EQ((m[i] >> j) & 1, (orig[j] >> i) & 1)
                    << "trial " << trial << " bit (" << i << "," << j << ")";
            }
        }
    }
}

TEST(FrameSampler, TransposedFramesEqualScalarRows)
{
    Dem dem = circuitDem(1e-2);
    // Shot counts around the 64-shot word boundary.
    for (std::size_t shots : {1u, 63u, 64u, 65u, 1000u, 4096u}) {
        for (uint64_t seed : {3u, 99u}) {
            SampleBatch scalar = sampleDem(dem, shots, seed);
            FrameBatch frames = sampleDemFrames(dem, shots, seed);
            SampleBatch rows;
            transposeView(frames.view(), rows);
            EXPECT_EQ(scalar.det, rows.det) << shots << "@" << seed;
            EXPECT_EQ(scalar.obs, rows.obs) << shots << "@" << seed;
        }
    }
}

TEST(FrameSampler, LdpcDemBitIdentical)
{
    // The fig12 LDPC coloration circuits at the rounds their benchmarks
    // use: lp39 (3 rounds), rqt54 (4) and rqt60 (6).
    struct Input
    {
        const char *name;
        code::CssCode (*build)();
        std::size_t rounds;
    };
    for (const Input &in : {Input{"lp39", code::benchmarkLp39, 3},
                            Input{"rqt54", code::benchmarkRqt54, 4},
                            Input{"rqt60", code::benchmarkRqt60, 6}}) {
        Dem dem = ldpcDem(in.build, in.rounds, 2e-3);
        SampleBatch scalar = sampleDem(dem, 3000, 17);
        FrameBatch frames = sampleDemFrames(dem, 3000, 17);
        SampleBatch rows;
        transposeView(frames.view(), rows);
        EXPECT_EQ(scalar.det, rows.det) << in.name;
        EXPECT_EQ(scalar.obs, rows.obs) << in.name;
    }
}

TEST(FrameSampler, FrameBitsMatchRowBits)
{
    Dem dem = circuitDem(5e-3);
    std::size_t shots = 300;
    FrameBatch frames = sampleDemFrames(dem, shots, 5);
    SampleBatch rows;
    transposeView(frames.view(), rows);
    for (std::size_t s = 0; s < shots; s += 7) {
        for (std::size_t d = 0; d < dem.numDetectors; ++d) {
            EXPECT_EQ(frames.detBit(d, s), rows.detBit(s, d));
        }
        for (std::size_t o = 0; o < dem.numObservables; ++o) {
            EXPECT_EQ(frames.obsBit(o, s), rows.obsBit(s, o));
        }
    }
}

TEST(FrameSampler, PerMechanismFlipCountsMatchProbabilities)
{
    // One mechanism per detector: the packed row popcount estimates p.
    Dem dem;
    dem.numDetectors = 4;
    dem.numObservables = 1;
    double ps[] = {0.002, 0.01, 0.05, 0.2};
    for (uint32_t d = 0; d < 4; ++d) {
        ErrorMechanism mech;
        mech.p = ps[d];
        mech.detectors = {d};
        if (d == 0) {
            mech.observables = {0};
        }
        dem.errors.push_back(mech);
    }
    const std::size_t shots = 200000;
    FrameBatch frames = sampleDemFrames(dem, shots, 1234);
    for (uint32_t d = 0; d < 4; ++d) {
        std::size_t flips = 0;
        for (std::size_t w = 0; w < frames.shotWords; ++w) {
            flips += std::popcount(frames.det[d * frames.shotWords + w]);
        }
        double expect = ps[d] * shots;
        double sigma = std::sqrt(ps[d] * (1 - ps[d]) * shots);
        EXPECT_NEAR((double)flips, expect, 6 * sigma) << "detector " << d;
    }
}

TEST(FrameSampler, UltraRareMechanismsFireInNoShot)
{
    // Below p ~ 1e-18 the first geometric gap log(u)/log1p(-p) exceeds
    // 2^64 shots; it must end the mechanism's stream, not wrap into a
    // small shot index. Both samplers share the event kernel.
    for (double p : {1e-21, 1e-30}) {
        Dem dem;
        dem.numDetectors = 1;
        dem.numObservables = 1;
        ErrorMechanism mech;
        mech.p = p;
        mech.detectors = {0};
        mech.observables = {0};
        dem.errors.push_back(mech);
        const std::size_t shots = 100000;
        for (uint64_t seed : {1u, 2u, 3u}) {
            SampleBatch rows = sampleDem(dem, shots, seed);
            std::size_t rowFlips = 0;
            for (uint64_t w : rows.det) {
                rowFlips += std::popcount(w);
            }
            EXPECT_EQ(rowFlips, 0u) << "p=" << p << " seed=" << seed;
            FrameBatch frames = sampleDemFrames(dem, shots, seed);
            std::size_t frameFlips = 0;
            for (uint64_t w : frames.det) {
                frameFlips += std::popcount(w);
            }
            EXPECT_EQ(frameFlips, 0u) << "p=" << p << " seed=" << seed;
        }
    }
}

TEST(FrameSampler, ShardedFramesEqualPerShardScalarRuns)
{
    Dem dem = circuitDem(1e-2);
    SampleBatch sharded = frameShardRows(dem, 5000, 11, 256);
    ShardPlan plan{5000, 256};
    for (std::size_t i = 0; i < plan.numShards(); i += 5) {
        SampleBatch part = sampleDem(dem, plan.shotsOf(i), shardSeed(11, i));
        for (std::size_t s = 0; s < part.shots; s += 13) {
            EXPECT_EQ(sharded.flippedDetectors(plan.offsetOf(i) + s),
                      part.flippedDetectors(s));
        }
    }
}

TEST(FrameSampler, ScratchOverloadMatchesAllocatingOverload)
{
    Dem dem = circuitDem(1e-2);
    SampleBatch batch = sampleDem(dem, 500, 3);
    std::vector<uint32_t> scratch;
    for (std::size_t s = 0; s < batch.shots; ++s) {
        batch.flippedDetectors(s, scratch);
        EXPECT_EQ(batch.flippedDetectors(s), scratch);
    }
}

/**
 * @file
 * Batch-decode contracts: decodePacked must equal a per-shot decode()
 * loop bit for bit for every decoder; BP+OSD's decode() must reproduce
 * the reference implementation exactly, both in exact mode
 * (stagnationWindow = 0) and at the default options, and the default
 * stagnation window must keep the exact mode's statistical quality.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "circuit/coloration.h"
#include "code/codes.h"
#include "code/surface.h"
#include "decoder/bp_osd.h"
#include "decoder/logical_error.h"
#include "decoder/registry.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/rng.h"
#include "sim/sampler.h"
#include "support/bp_osd_reference.h"
#include "support/mle.h"

using namespace prophunt;
using namespace prophunt::sim;

namespace {

/** Random sparse DEM: ne mechanisms over nd detectors. */
Dem
randomDem(uint64_t seed, std::size_t nd, std::size_t ne, double max_p)
{
    Rng rng(seed);
    Dem dem;
    dem.numDetectors = nd;
    dem.numObservables = 2;
    for (std::size_t e = 0; e < ne; ++e) {
        ErrorMechanism mech;
        mech.p = 1e-4 + rng.uniform() * max_p;
        std::size_t weight = 1 + rng.below(3);
        for (std::size_t k = 0; k < weight; ++k) {
            uint32_t d = (uint32_t)rng.below(nd);
            bool dup = false;
            for (uint32_t prev : mech.detectors) {
                if (prev == d) {
                    dup = true;
                }
            }
            if (!dup) {
                mech.detectors.push_back(d);
            }
        }
        std::sort(mech.detectors.begin(), mech.detectors.end());
        if (rng.below(3) == 0) {
            mech.observables.push_back((uint32_t)rng.below(2));
        }
        dem.errors.push_back(std::move(mech));
    }
    return dem;
}

Dem
ldpcDem(double p)
{
    auto code = code::benchmarkLp39();
    auto cp = std::make_shared<const code::CssCode>(code);
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            3, circuit::MemoryBasis::Z);
    return buildDem(circ, NoiseModel::uniform(p));
}

/** decodePacked must equal a per-shot decode() loop over the same
 * sampled shots (the scalar sampler reproduces the frames bit for bit). */
void
expectPackedEqualsLoop(decoder::Decoder &dec, const Dem &dem,
                       std::size_t shots, uint64_t seed)
{
    FrameBatch frames = sampleDemFrames(dem, shots, seed);
    std::vector<uint64_t> packed(shots);
    dec.decodePacked(frames.view(), packed.data());
    SampleBatch batch = sampleDem(dem, shots, seed);
    for (std::size_t s = 0; s < shots; ++s) {
        EXPECT_EQ(packed[s], dec.decode(batch.flippedDetectors(s)))
            << "shot " << s;
    }
}

} // namespace

TEST(BatchDecode, BpOsdPackedEqualsDecodeOnRandomDems)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        Dem dem = randomDem(seed, 40, 120, 0.03);
        decoder::BpOsdDecoder dec(dem);
        expectPackedEqualsLoop(dec, dem, 400, seed * 7 + 1);
    }
}

TEST(BatchDecode, MlePackedEqualsDecode)
{
    Dem dem = randomDem(5, 10, 18, 0.05);
    oracles::MleDecoder dec(dem, 4);
    expectPackedEqualsLoop(dec, dem, 150, 9);
}

TEST(BatchDecode, UnionFindPackedEqualsDecode)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            3, circuit::MemoryBasis::Z);
    Dem dem = buildDem(circ, NoiseModel::uniform(5e-3));
    auto dec = decoder::Registry::make("union_find", dem, circ);
    expectPackedEqualsLoop(*dec, dem, 600, 23);
}

TEST(BatchDecode, DecodeMatchesReferenceOnRandomDems)
{
    // decode() must reproduce the reference implementation bit for bit,
    // in exact mode (stagnationWindow = 0) and at the default options:
    // the reference applies the same stagnation rule.
    decoder::BpOsdOptions exact;
    exact.stagnationWindow = 0;
    const decoder::BpOsdOptions defaults;
    for (const decoder::BpOsdOptions &opts : {exact, defaults}) {
        for (uint64_t seed : {11u, 12u, 13u, 14u}) {
            Dem dem = randomDem(seed, 50, 160, 0.04);
            decoder::BpOsdDecoder dec(dem, opts);
            auto tanner = decoder::BpOsdDecoder::buildTanner(dem);
            SampleBatch batch = sampleDem(dem, 500, seed + 100);
            std::vector<uint32_t> scratch;
            for (std::size_t s = 0; s < batch.shots; ++s) {
                batch.flippedDetectors(s, scratch);
                EXPECT_EQ(dec.decode(scratch),
                          oracles::decodeReference(*tanner, opts, scratch))
                    << "window " << opts.stagnationWindow << " seed " << seed
                    << " shot " << s;
            }
        }
    }
}

TEST(BatchDecode, ExactModeMatchesReferenceOnLdpcCircuit)
{
    decoder::BpOsdOptions exact;
    exact.stagnationWindow = 0;
    for (double p : {1e-3, 4e-3}) {
        Dem dem = ldpcDem(p);
        decoder::BpOsdDecoder dec(dem, exact);
        auto tanner = decoder::BpOsdDecoder::buildTanner(dem);
        SampleBatch batch = sampleDem(dem, 800, 201);
        std::vector<uint32_t> scratch;
        for (std::size_t s = 0; s < batch.shots; ++s) {
            batch.flippedDetectors(s, scratch);
            EXPECT_EQ(dec.decode(scratch),
                      oracles::decodeReference(*tanner, exact, scratch))
                << "p " << p << " shot " << s;
        }
    }
}

TEST(BatchDecode, StagnationWindowKeepsStatisticalQuality)
{
    // The default stagnation window may change individual hard-shot
    // predictions but must not degrade the logical error rate beyond
    // statistical noise (empirically it slightly improves it).
    Dem dem = ldpcDem(2e-3);
    decoder::BpOsdOptions exact;
    exact.stagnationWindow = 0;
    decoder::BpOsdDecoder dexact(dem, exact);
    decoder::BpOsdDecoder dfast(dem); // default window
    FrameBatch frames = sampleDemFrames(dem, 6000, 77);
    std::vector<uint64_t> a(frames.shots), b(frames.shots), masks;
    dexact.decodePacked(frames.view(), a.data());
    dfast.decodePacked(frames.view(), b.data());
    frames.obsMasks(masks);
    std::size_t failExact = 0, failFast = 0;
    for (std::size_t s = 0; s < frames.shots; ++s) {
        failExact += a[s] != masks[s];
        failFast += b[s] != masks[s];
    }
    // ~5 sigma of slack on top of the exact-mode failure count.
    double sigma = std::sqrt((double)failExact + 1.0);
    EXPECT_LE((double)failFast, (double)failExact + 5.0 * sigma)
        << "exact=" << failExact << " fast=" << failFast;
}

/**
 * @file
 * Packed-decode contracts of the lane engine.
 *
 * decodePacked must equal decodeBatch must equal per-shot decode(),
 * observable for observable, for every laneWidth — 0 (the transpose +
 * batched adapter), 4/8 (AVX2 kernels where available), the maximum
 * width, and an odd width that exercises the scalar remainder lanes —
 * across random DEMs and lp39/rqt54 circuit DEMs, including odd shot
 * counts that leave a partial final 64-shot word. Also pins down the
 * engine's shot-order/thread-count invariance through measureDemLer and
 * the generic (no-AVX2) kernel cross-check, and pins the default decoder's
 * outputs on the benchmark codes to golden hashes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "circuit/coloration.h"
#include "code/codes.h"
#include "code/surface.h"
#include "decoder/bp_osd.h"
#include "decoder/logical_error.h"
#include "decoder/union_find.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/rng.h"
#include "sim/sampler.h"

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
circuitDem(const code::CssCode &code, std::size_t rounds, double p,
           circuit::MemoryBasis basis = circuit::MemoryBasis::Z)
{
    auto cp = std::make_shared<const code::CssCode>(code);
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            rounds, basis);
    return buildDem(circ, NoiseModel::uniform(p));
}

Dem
circuitDem(code::CssCode (*build)(), std::size_t rounds, double p)
{
    return circuitDem(build(), rounds, p);
}

/** The tested width matrix: scalar reference path, both AVX2 kernel
 * widths, an odd width (scalar remainder lanes), and the maximum. */
const std::size_t kWidths[] = {0, 4, 8, 5,
                               decoder::BpOsdDecoder::kMaxLaneWidth};

/** decodePacked == decodeBatch == decode for every lane width. */
void
expectPackedMatrixEquals(const Dem &dem, const FrameBatch &frames)
{
    SampleBatch rows;
    transposeFrames(frames, rows);
    // The laneWidth=0 reference: the PR 2 batched path.
    decoder::BpOsdOptions refOpts;
    refOpts.laneWidth = 0;
    decoder::BpOsdDecoder refDec(dem, refOpts);
    std::vector<uint64_t> batched(frames.shots);
    refDec.decodeBatch(rows, 0, frames.shots, batched.data());

    std::vector<uint64_t> viaPacked(frames.shots);
    decoder::PackedDecodeStats stats;
    refDec.decodePacked(frames.view(), viaPacked.data(), &stats);
    EXPECT_EQ(viaPacked, batched) << "laneWidth 0 adapter";
    EXPECT_EQ(stats.adapterShots, frames.shots);
    EXPECT_EQ(stats.packedShots, 0u);

    std::vector<uint32_t> scratch;
    for (std::size_t w : kWidths) {
        if (w == 0) {
            continue;
        }
        decoder::BpOsdOptions opts;
        opts.laneWidth = w;
        decoder::BpOsdDecoder dec(dem, opts);
        std::vector<uint64_t> lane(frames.shots, ~uint64_t{0});
        decoder::PackedDecodeStats st;
        dec.decodePacked(frames.view(), lane.data(), &st);
        EXPECT_EQ(st.packedShots, frames.shots) << "laneWidth " << w;
        EXPECT_EQ(st.adapterShots, 0u) << "laneWidth " << w;
        for (std::size_t s = 0; s < frames.shots; ++s) {
            ASSERT_EQ(lane[s], batched[s])
                << "laneWidth " << w << " shot " << s;
        }
        // Spot-check per-shot decode() on the same decoder instance: the
        // scalar entry point must agree after the lane engine ran (the
        // shared scratch invariants survived).
        for (std::size_t s = 0; s < std::min<std::size_t>(frames.shots, 64);
             ++s) {
            rows.flippedDetectors(s, scratch);
            ASSERT_EQ(dec.decode(scratch), batched[s])
                << "laneWidth " << w << " decode() shot " << s;
        }
    }
}

} // namespace

TEST(LaneDecode, MatrixOnRandomDems)
{
    for (uint64_t seed : {21u, 22u, 23u}) {
        Dem dem = randomDem(seed, 40, 120, 0.03);
        // 451 shots: a partial final word (451 = 7*64 + 3).
        FrameBatch frames = sampleDemFrames(dem, 451, seed * 5 + 3);
        expectPackedMatrixEquals(dem, frames);
    }
}

TEST(LaneDecode, MatrixOnLp39CircuitDem)
{
    Dem dem = circuitDem(code::benchmarkLp39, 3, 2e-3);
    FrameBatch frames = sampleDemFrames(dem, 333, 77);
    expectPackedMatrixEquals(dem, frames);
}

TEST(LaneDecode, MatrixOnRqt54CircuitDem)
{
    Dem dem = circuitDem(code::benchmarkRqt54, 4, 2e-3);
    FrameBatch frames = sampleDemFrames(dem, 129, 901);
    expectPackedMatrixEquals(dem, frames);
}

TEST(LaneDecode, OsdHeavyRegimeMatrix)
{
    // High noise plus a tiny iteration budget: most lanes retire without
    // BP convergence and flow through the batched OSD work queue. Every
    // lane width must still reproduce the laneWidth-0 batched path
    // observable for observable, across odd shot counts that leave a
    // partial final 64-shot word and force several queue flushes.
    for (std::size_t shots : {37u, 451u}) {
        Dem dem = randomDem(91, 48, 160, 0.12);
        FrameBatch frames = sampleDemFrames(dem, shots, 17);
        SampleBatch rows;
        transposeFrames(frames, rows);
        decoder::BpOsdOptions refOpts;
        refOpts.laneWidth = 0;
        refOpts.maxIterations = 3;
        decoder::BpOsdDecoder refDec(dem, refOpts);
        std::vector<uint64_t> batched(shots);
        refDec.decodeBatch(rows, 0, shots, batched.data());
        for (std::size_t w : kWidths) {
            if (w == 0) {
                continue;
            }
            decoder::BpOsdOptions opts;
            opts.laneWidth = w;
            opts.maxIterations = 3;
            decoder::BpOsdDecoder dec(dem, opts);
            std::vector<uint64_t> lane(shots, ~uint64_t{0});
            decoder::PackedDecodeStats st;
            dec.decodePacked(frames.view(), lane.data(), &st);
            EXPECT_EQ(lane, batched) << "laneWidth " << w;
            // The regime must actually exercise the batched OSD queue.
            EXPECT_GT(st.osdShots, shots / 4) << "laneWidth " << w;
        }
    }
}

TEST(LaneDecode, OsdHeavyCircuitDemAcrossThreads)
{
    // The packed pipeline end to end in an OSD-dominated regime:
    // failures and the osdShots counter must be thread- and
    // shard-invariant (the batched queue is per decodePacked call, and a
    // shot's OSD solve is independent of its queue companions).
    Dem dem = circuitDem(code::benchmarkLp39, 3, 6e-3);
    decoder::BpOsdOptions opts;
    opts.maxIterations = 4;
    decoder::BpOsdDecoder dec(dem, opts);
    decoder::LerOptions base;
    base.shardShots = 101; // odd shard size: ragged lane queues
    base.threads = 1;
    decoder::LerResult serial =
        decoder::measureDemLer(dem, dec, 707, 29, base);
    EXPECT_EQ(serial.shots, 707u);
    EXPECT_GT(serial.packed.osdShots, 0u);
    for (std::size_t threads : {2u, 4u}) {
        decoder::LerOptions par = base;
        par.threads = threads;
        decoder::LerResult r = decoder::measureDemLer(dem, dec, 707, 29, par);
        EXPECT_EQ(serial.failures, r.failures) << threads << " threads";
        EXPECT_EQ(serial.packed.osdShots, r.packed.osdShots)
            << threads << " threads";
    }
    // decodeBatch (scalar immediate OSD) must agree shot for shot with
    // decodePacked (batched OSD queue) on the same frames.
    FrameBatch frames = sampleDemFrames(dem, 707, shardSeed(29, 0));
    SampleBatch rows;
    transposeFrames(frames, rows);
    std::vector<uint64_t> viaBatch(707), viaPacked(707);
    dec.decodeBatch(rows, 0, 707, viaBatch.data());
    dec.decodePacked(frames.view(), viaPacked.data());
    EXPECT_EQ(viaPacked, viaBatch);
}

TEST(LaneDecode, GenericKernelMatchesAvx2)
{
    // PROPHUNT_NO_AVX512 steps down to the AVX2 kernels and
    // PROPHUNT_NO_AVX2 forces the scalar-lane kernels; predictions must
    // not change across any tier (on machines without the respective
    // extension a step compares a tier to itself, which still pins the
    // env-var plumbing).
    Dem dem = circuitDem(code::benchmarkLp39, 3, 2e-3);
    FrameBatch frames = sampleDemFrames(dem, 200, 5);
    decoder::BpOsdOptions opts;
    opts.laneWidth = 8;
    decoder::BpOsdDecoder dec(dem, opts);
    std::vector<uint64_t> vec(frames.shots), avx2(frames.shots),
        gen(frames.shots);
    dec.decodePacked(frames.view(), vec.data());
    // Restore the prior values afterwards — the CI scalar matrix leg
    // sets PROPHUNT_NO_AVX2 job-wide, and later tests in this binary
    // must keep running the tier that leg selected.
    const char *prevNo512 = getenv("PROPHUNT_NO_AVX512");
    std::string savedNo512 = prevNo512 ? prevNo512 : "";
    const char *prevNoAvx2 = getenv("PROPHUNT_NO_AVX2");
    std::string savedNoAvx2 = prevNoAvx2 ? prevNoAvx2 : "";
    setenv("PROPHUNT_NO_AVX512", "1", 1);
    decoder::BpOsdDecoder dec3(dem, opts);
    dec3.decodePacked(frames.view(), avx2.data());
    if (prevNo512 != nullptr) {
        setenv("PROPHUNT_NO_AVX512", savedNo512.c_str(), 1);
    } else {
        unsetenv("PROPHUNT_NO_AVX512");
    }
    setenv("PROPHUNT_NO_AVX2", "1", 1);
    decoder::BpOsdDecoder dec2(dem, opts);
    dec2.decodePacked(frames.view(), gen.data());
    if (prevNoAvx2 != nullptr) {
        setenv("PROPHUNT_NO_AVX2", savedNoAvx2.c_str(), 1);
    } else {
        unsetenv("PROPHUNT_NO_AVX2");
    }
    EXPECT_EQ(vec, avx2);
    EXPECT_EQ(vec, gen);
}

TEST(LaneDecode, DefaultAdapterServesRowDecoders)
{
    // A decoder without a native packed path goes through the transpose
    // adapter and must equal its own decodeBatch.
    code::SurfaceCode surface(3);
    auto cs = std::make_shared<const code::CssCode>(surface.code());
    auto circ = circuit::buildMemoryCircuit(
        circuit::colorationSchedule(cs), 3, circuit::MemoryBasis::Z);
    Dem dem = buildDem(circ, NoiseModel::uniform(5e-3));
    auto dec = decoder::makeDecoder(dem, circ, "union_find");
    FrameBatch frames = sampleDemFrames(dem, 259, 11);
    SampleBatch rows;
    transposeFrames(frames, rows);
    std::vector<uint64_t> batched(frames.shots), packed(frames.shots);
    dec->decodeBatch(rows, 0, frames.shots, batched.data());
    decoder::PackedDecodeStats stats;
    dec->decodePacked(frames.view(), packed.data(), &stats);
    EXPECT_EQ(packed, batched);
    EXPECT_EQ(stats.adapterShots, frames.shots);
    EXPECT_EQ(stats.packedShots, 0u);
}

TEST(LaneDecode, GoldenOutputsOnBenchmarkCodes)
{
    // Pinned default-options decodePacked outputs: an FNV-1a hash of the
    // per-shot predictions, the failure count, and osdShots per (code, p,
    // basis) cell at fixed sampling seeds. Any change to what the BP+OSD
    // decoder predicts on the benchmark codes — BP arithmetic, stopping
    // rules, OSD pivot order — moves at least one of these constants.
    // They were recorded while BP still ran on localized regions
    // (radius 3) and must hold unchanged on the full Tanner graph: the
    // proof that dropping the regions changed no output bit.
    struct Cell
    {
        const char *code;
        double p;
        circuit::MemoryBasis basis;
        uint64_t hash;
        std::size_t failures;
        uint64_t osdShots;
    };
    using circuit::MemoryBasis;
    const Cell cells[] = {
        {"surface3", 1e-3, MemoryBasis::Z, 9042513869818124195ull, 0, 1},
        {"surface3", 1e-3, MemoryBasis::X, 15671602179283603266ull, 1, 2},
        {"surface3", 4e-3, MemoryBasis::Z, 12433859014133703011ull, 6, 20},
        {"surface3", 4e-3, MemoryBasis::X, 3708676697114346402ull, 4, 21},
        {"surface5", 1e-3, MemoryBasis::Z, 15053811675821901602ull, 1, 38},
        {"surface5", 1e-3, MemoryBasis::X, 13847107380374571810ull, 1, 25},
        {"surface5", 4e-3, MemoryBasis::Z, 4519325614385277571ull, 4, 250},
        {"surface5", 4e-3, MemoryBasis::X, 13833945219477208162ull, 7, 242},
        {"lp39", 1e-3, MemoryBasis::Z, 18000601530091996035ull, 1, 19},
        {"lp39", 1e-3, MemoryBasis::X, 3675279716225523365ull, 1, 37},
        {"lp39", 4e-3, MemoryBasis::Z, 15745982174862581475ull, 26, 255},
        {"lp39", 4e-3, MemoryBasis::X, 3726356808080361219ull, 19, 270},
        {"rqt54", 1e-3, MemoryBasis::Z, 14180402718664502738ull, 109, 245},
        {"rqt54", 1e-3, MemoryBasis::X, 2346137499269743696ull, 113, 230},
        {"rqt54", 4e-3, MemoryBasis::Z, 18374478876030329707ull, 479, 840},
        {"rqt54", 4e-3, MemoryBasis::X, 15244810195741891220ull, 510, 869},
        {"rqt60", 1e-3, MemoryBasis::Z, 18413573488877339427ull, 0, 76},
        {"rqt60", 1e-3, MemoryBasis::X, 7175403773689132768ull, 0, 100},
        {"rqt60", 4e-3, MemoryBasis::Z, 17600379692024172579ull, 3, 438},
        {"rqt60", 4e-3, MemoryBasis::X, 13348434726898820162ull, 2, 448},
    };
    constexpr std::size_t kShots = 1024;
    uint64_t seed = 4001;
    for (const Cell &cell : cells) {
        std::string name = cell.code;
        code::CssCode cc = name == "surface3"   ? code::benchmarkSurface(3)
                           : name == "surface5" ? code::benchmarkSurface(5)
                           : name == "lp39"     ? code::benchmarkLp39()
                           : name == "rqt54"    ? code::benchmarkRqt54()
                                                : code::benchmarkRqt60();
        std::size_t rounds = name == "surface5" ? 5 : 3;
        Dem dem = circuitDem(cc, rounds, cell.p, cell.basis);
        FrameBatch frames = sampleDemFrames(dem, kShots, seed++);
        decoder::BpOsdDecoder dec(dem);
        std::vector<uint64_t> pred(kShots);
        decoder::PackedDecodeStats stats;
        dec.decodePacked(frames.view(), pred.data(), &stats);
        std::vector<uint64_t> masks;
        frames.obsMasks(masks);
        uint64_t hash = 1469598103934665603ull;
        std::size_t failures = 0;
        for (std::size_t s = 0; s < kShots; ++s) {
            for (int byte = 0; byte < 8; ++byte) {
                hash ^= (pred[s] >> (8 * byte)) & 0xff;
                hash *= 1099511628211ull;
            }
            failures += pred[s] != masks[s];
        }
        std::string label = name + " p=" + std::to_string(cell.p) +
                            (cell.basis == MemoryBasis::Z ? " Z" : " X");
        EXPECT_EQ(hash, cell.hash) << label;
        EXPECT_EQ(failures, cell.failures) << label;
        EXPECT_EQ(stats.osdShots, cell.osdShots) << label;
    }
}

TEST(LaneDecode, LerEngineThreadAndShardInvariantWithLanes)
{
    // The packed pipeline end to end: failures and packed-path telemetry
    // must not depend on thread count or shard size at a fixed seed (the
    // lane engine decodes shard-local queues, and a shot's result never
    // depends on which shots share its lanes).
    Dem dem = circuitDem(code::benchmarkLp39, 3, 4e-3);
    decoder::BpOsdDecoder dec(dem);
    decoder::LerOptions base;
    base.shardShots = 128;
    base.threads = 1;
    decoder::LerResult serial =
        decoder::measureDemLer(dem, dec, 1500, 31, base);
    EXPECT_EQ(serial.shots, 1500u);
    EXPECT_EQ(serial.packed.packedShots, 1500u);
    EXPECT_GT(serial.packed.laneSlotsTotal, 0u);
    for (std::size_t threads : {2u, 4u}) {
        decoder::LerOptions opts = base;
        opts.threads = threads;
        decoder::LerResult par =
            decoder::measureDemLer(dem, dec, 1500, 31, opts);
        EXPECT_EQ(serial.failures, par.failures) << threads << " threads";
        EXPECT_EQ(serial.packed.laneSlotsBusy, par.packed.laneSlotsBusy)
            << threads << " threads";
    }
    // Different shard sizes change the lane co-residency completely; the
    // failure count must not move (shot-order invariance).
    decoder::LerOptions bigShards = base;
    bigShards.shardShots = 1500;
    decoder::LerResult one =
        decoder::measureDemLer(dem, dec, 1500, 31, bigShards);
    // Shard seeds differ between plans, so compare against a direct
    // whole-batch decode at the single-shard seed instead.
    FrameBatch frames = sampleDemFrames(dem, 1500, shardSeed(31, 0));
    std::vector<uint64_t> pred(frames.shots);
    dec.decodePacked(frames.view(), pred.data());
    std::vector<uint64_t> masks;
    frames.obsMasks(masks);
    std::size_t failures = 0;
    for (std::size_t s = 0; s < frames.shots; ++s) {
        failures += pred[s] != masks[s];
    }
    EXPECT_EQ(one.failures, failures);
}

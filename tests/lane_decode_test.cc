/**
 * @file
 * Packed-decode contracts of the lane engine.
 *
 * decodePacked must equal per-shot decode() must equal the reference
 * decoder (oracles::decodeReference), observable for observable, at the
 * default options, at a tiny iteration budget, and with no BP iterations
 * at all, and decodePacked must equal it in exact mode (no stagnation
 * stop) — across random DEMs and lp39/rqt54/rqt60 circuit DEMs,
 * including odd shot counts that leave a partial final 64-shot word. Also pins down the engine's
 * shot-order/thread-count invariance through api::DecodeService, the
 * cross-check of the kernel's vector widths, that padding bits beyond a
 * view's shots are ignored, the default decoder's outputs on the
 * benchmark codes as golden hashes, and that it decodes every syndrome
 * whose explanations of weight at most 2 agree on the observables.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "circuit/coloration.h"
#include "code/codes.h"
#include "code/surface.h"
#include "decoder/bp_osd.h"
#include "decoder/logical_error.h"
#include "decoder/registry.h"
#include "decoder/union_find.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/rng.h"
#include "support/bp_osd_reference.h"
#include "support/sampling.h"

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

/**
 * decodePacked == decodeReference at @p opts, shot for shot, and so is
 * decode() unless @p per_shot is false. Returns the packed decode's
 * stats.
 */
decoder::PackedDecodeStats
expectMatchesReference(const Dem &dem, const FrameBatch &frames,
                       const decoder::BpOsdOptions &opts,
                       bool per_shot = true)
{
    SampleBatch rows;
    transposeView(frames.view(), rows);
    decoder::BpOsdDecoder dec(dem, opts);
    std::vector<uint64_t> packed(frames.shots, ~uint64_t{0});
    decoder::PackedDecodeStats st;
    dec.decodePacked(frames.view(), packed.data(), &st);
    EXPECT_EQ(st.packedShots, frames.shots);
    EXPECT_EQ(st.adapterShots, 0u);
    std::string label = "maxIterations " + std::to_string(opts.maxIterations) +
                        " stagnationWindow " +
                        std::to_string(opts.stagnationWindow);
    auto tanner = decoder::BpOsdDecoder::buildTanner(dem);
    oracles::LowWeightReference low(*tanner);
    std::vector<uint32_t> flipped;
    for (std::size_t s = 0; s < frames.shots; ++s) {
        rows.flippedDetectors(s, flipped);
        uint64_t ref = oracles::decodeReference(*tanner, low, opts, flipped);
        EXPECT_EQ(packed[s], ref) << label << " shot " << s;
        // decode() on the same instance after the packed run: the lane
        // engine's between-shot invariants survived.
        if (per_shot) {
            EXPECT_EQ(dec.decode(flipped), ref)
                << label << " decode() shot " << s;
        }
    }
    return st;
}

/** The oracle comparison at the default options, at a 3-iteration
 * budget (most hard shots end in OSD), and in exact mode (no stagnation
 * stop: every unconverged shot runs the whole iteration budget). Exact
 * mode checks decodePacked only: a decode() call runs one shot through a
 * whole lane group for 30 iterations, over a second on rqt54, and
 * BatchDecode.ExactModeMatchesReferenceOnLdpcCircuit checks decode() in
 * exact mode. */
void
expectMatrixMatchesReference(const Dem &dem, const FrameBatch &frames)
{
    decoder::BpOsdOptions opts;
    expectMatchesReference(dem, frames, opts);
    decoder::BpOsdOptions capped;
    capped.maxIterations = 3;
    expectMatchesReference(dem, frames, capped);
    decoder::BpOsdOptions exact;
    exact.stagnationWindow = 0;
    expectMatchesReference(dem, frames, exact, false);
}

/**
 * Every explanation of weight at most 2 of a syndrome, found from the
 * sim::Dem alone: a std::map from each mechanism's sorted detector list
 * to the observable masks of the mechanisms with that list, and a plain
 * enumeration of the pairs. It shares no code and no hashing with the
 * decoder's own low-weight stage.
 */
class LowWeightOracle
{
  public:
    /** @p dem must outlive the oracle. */
    explicit LowWeightOracle(const Dem &dem)
        : dem_(dem), onDetector_(dem.detectorToErrors())
    {
        for (const ErrorMechanism &mech : dem.errors) {
            uint64_t obs = 0;
            for (uint32_t o : mech.observables) {
                obs |= uint64_t{1} << o;
            }
            masks_[mech.detectors].push_back(obs);
            obs_.push_back(obs);
        }
    }

    /** What the oracle knows about one syndrome. */
    struct Verdict
    {
        /** The mask every explanation of weight at most 2 flips, when
         * there is at least one and they all agree. */
        std::optional<uint64_t> unique;
        /** Some single mechanism reproduces the syndrome. */
        bool weightOne = false;
    };

    /** The explanations of the sorted, non-empty syndrome @p flipped.
     * Every pair explaining it has exactly one mechanism on its first
     * detector, so the pairs are found once each from that detector. */
    Verdict
    verdict(const std::vector<uint32_t> &flipped) const
    {
        std::vector<uint64_t> found;
        auto single = masks_.find(flipped);
        if (single != masks_.end()) {
            found = single->second;
        }
        Verdict v;
        v.weightOne = !found.empty();
        std::vector<uint32_t> rest;
        for (uint32_t a : onDetector_[flipped[0]]) {
            const std::vector<uint32_t> &sig = dem_.errors[a].detectors;
            rest.clear();
            std::set_symmetric_difference(flipped.begin(), flipped.end(),
                                          sig.begin(), sig.end(),
                                          std::back_inserter(rest));
            auto hit = masks_.find(rest);
            if (hit == masks_.end()) {
                continue;
            }
            for (uint64_t obs : hit->second) {
                found.push_back(obs_[a] ^ obs);
            }
        }
        if (!found.empty() &&
            std::all_of(found.begin(), found.end(),
                        [&](uint64_t m) { return m == found[0]; })) {
            v.unique = found[0];
        }
        return v;
    }

  private:
    const Dem &dem_;
    std::map<std::vector<uint32_t>, std::vector<uint64_t>> masks_;
    std::vector<uint64_t> obs_; ///< Observable mask per mechanism.
    std::vector<std::vector<uint32_t>> onDetector_;
};

/** Shots BP+OSD resolves without BP: the empty syndrome, a detector no
 * mechanism touches, an exact single-mechanism signature, or weight-2
 * explanations that all flip the same observables. */
std::size_t
trivialShots(const Dem &dem, const SampleBatch &rows)
{
    LowWeightOracle oracle(dem);
    std::vector<uint8_t> touched(dem.numDetectors, 0);
    for (const ErrorMechanism &mech : dem.errors) {
        for (uint32_t d : mech.detectors) {
            touched[d] = 1;
        }
    }
    std::size_t trivial = 0;
    std::vector<uint32_t> flipped;
    for (std::size_t s = 0; s < rows.shots; ++s) {
        rows.flippedDetectors(s, flipped);
        bool isolated = false;
        for (uint32_t d : flipped) {
            isolated = isolated || touched[d] == 0;
        }
        if (flipped.empty() || isolated) {
            ++trivial;
            continue;
        }
        LowWeightOracle::Verdict v = oracle.verdict(flipped);
        trivial += v.weightOne || v.unique;
    }
    return trivial;
}

/**
 * decodePacked of @p frames with env flag @p name set to "1", then the
 * flag's prior value (or absence) restored — the CI scalar matrix leg
 * sets PROPHUNT_NO_AVX2 job-wide, and later tests in this binary must
 * keep running the kernel width that leg selected.
 */
std::vector<uint64_t>
decodeWithFlag(const char *name, const Dem &dem, const FrameBatch &frames,
               const decoder::BpOsdOptions &opts)
{
    const char *prev = getenv(name);
    std::string saved = prev ? prev : "";
    setenv(name, "1", 1);
    decoder::BpOsdDecoder dec(dem, opts);
    std::vector<uint64_t> out(frames.shots);
    dec.decodePacked(frames.view(), out.data());
    if (prev != nullptr) {
        setenv(name, saved.c_str(), 1);
    } else {
        unsetenv(name);
    }
    return out;
}

/** What a golden cell pins: an FNV-1a hash of the per-shot predictions,
 * the failure count and osdShots. */
struct GoldenDigest
{
    uint64_t hash = 1469598103934665603ull;
    std::size_t failures = 0;
    uint64_t osdShots = 0;
};

/** Default-options decodePacked of @p shots shots of @p dem sampled at
 * @p seed, digested. */
GoldenDigest
goldenDigest(const Dem &dem, std::size_t shots, uint64_t seed)
{
    FrameBatch frames = sampleDemFrames(dem, shots, seed);
    decoder::BpOsdDecoder dec(dem);
    std::vector<uint64_t> pred(shots);
    decoder::PackedDecodeStats stats;
    dec.decodePacked(frames.view(), pred.data(), &stats);
    std::vector<uint64_t> masks;
    frames.obsMasks(masks);
    GoldenDigest g;
    for (std::size_t s = 0; s < shots; ++s) {
        for (int byte = 0; byte < 8; ++byte) {
            g.hash ^= (pred[s] >> (8 * byte)) & 0xff;
            g.hash *= 1099511628211ull;
        }
        g.failures += pred[s] != masks[s];
    }
    g.osdShots = stats.osdShots;
    return g;
}

} // namespace

TEST(LaneDecode, MatrixOnRandomDems)
{
    for (uint64_t seed : {21u, 22u, 23u}) {
        Dem dem = randomDem(seed, 40, 120, 0.03);
        // 451 shots: a partial final word (451 = 7*64 + 3).
        FrameBatch frames = sampleDemFrames(dem, 451, seed * 5 + 3);
        expectMatrixMatchesReference(dem, frames);
    }
}

TEST(LaneDecode, MatrixOnLp39CircuitDem)
{
    Dem dem = circuitDem(code::benchmarkLp39, 3, 2e-3);
    FrameBatch frames = sampleDemFrames(dem, 333, 77);
    expectMatrixMatchesReference(dem, frames);
}

TEST(LaneDecode, MatrixOnRqt54CircuitDem)
{
    Dem dem = circuitDem(code::benchmarkRqt54, 4, 2e-3);
    FrameBatch frames = sampleDemFrames(dem, 129, 901);
    expectMatrixMatchesReference(dem, frames);
}

TEST(LaneDecode, MatrixOnRqt60CircuitDem)
{
    Dem dem = circuitDem(code::benchmarkRqt60, 6, 2e-3);
    FrameBatch frames = sampleDemFrames(dem, 101, 607);
    expectMatrixMatchesReference(dem, frames);
}

TEST(LaneDecode, OsdHeavyRegimeMatrix)
{
    // High noise plus a tiny iteration budget: most lanes retire without
    // BP convergence and flow through the batched OSD work queue. The
    // lanes must still reproduce the reference observable for
    // observable, across odd shot counts that leave a partial final
    // 64-shot word and force several queue flushes.
    for (std::size_t shots : {37u, 451u}) {
        Dem dem = randomDem(91, 48, 160, 0.12);
        FrameBatch frames = sampleDemFrames(dem, shots, 17);
        decoder::BpOsdOptions opts;
        opts.maxIterations = 3;
        decoder::PackedDecodeStats st =
            expectMatchesReference(dem, frames, opts);
        // The regime must actually exercise the batched OSD queue.
        EXPECT_GT(st.osdShots, shots / 4) << shots << " shots";
    }
}

TEST(LaneDecode, ZeroIterationsGoStraightToOsd)
{
    // maxIterations = 0: every non-trivial shot skips BP and OSD ranks
    // the columns by all-zero posteriors (column-id order).
    decoder::BpOsdOptions opts;
    opts.maxIterations = 0;
    Dem random = randomDem(31, 40, 120, 0.05);
    Dem lp39 = circuitDem(code::benchmarkLp39, 3, 4e-3);
    for (const Dem *dem : {&random, &lp39}) {
        FrameBatch frames = sampleDemFrames(*dem, 451, 12);
        decoder::PackedDecodeStats st =
            expectMatchesReference(*dem, frames, opts);
        SampleBatch rows;
        transposeView(frames.view(), rows);
        std::size_t nonTrivial = frames.shots - trivialShots(*dem, rows);
        EXPECT_GT(nonTrivial, 0u);
        EXPECT_EQ(st.osdShots, nonTrivial);
        EXPECT_EQ(st.laneSlotsTotal, 0u);
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
    decoder::LerOptions ler;
    ler.shardShots = 101; // odd shard size: ragged lane queues
    decoder::LerResult serial = oracles::measureDemLer(dem, dec, 707, 29, ler);
    EXPECT_EQ(serial.shots, 707u);
    EXPECT_GT(serial.packed.osdShots, 0u);
    for (std::size_t threads : {1u, 2u, 4u}) {
        ler.threads = threads;
        decoder::LerResult r = oracles::serviceMeasure(dem, dec, 707, 29, ler);
        EXPECT_EQ(serial.failures, r.failures) << threads << " threads";
        EXPECT_EQ(serial.packed.osdShots, r.packed.osdShots)
            << threads << " threads";
    }
    // The reference (scalar immediate OSD) must agree shot for shot with
    // decodePacked (batched OSD queue) on the same frames.
    FrameBatch frames = sampleDemFrames(dem, 707, shardSeed(29, 0));
    expectMatchesReference(dem, frames, opts);
}

TEST(LaneDecode, EveryKernelWidthMatchesReference)
{
    // The native width, PROPHUNT_NO_AVX512 (the V = 8 kernel
    // instantiation) and PROPHUNT_NO_AVX2 (V = 4) must each equal
    // decodeReference shot for shot (on machines without the respective
    // extension a step compares a width to itself, which still pins the
    // env-var plumbing). rqt54's high-degree detectors make min2/argpos
    // ties occur; the 3-iteration budget sends most hard shots through
    // OSD. At p = 2e-2 nearly every shot runs BP and ends in OSD, where
    // equal float posteriors and min1/min2 ties are likeliest, and its
    // 129 BP-bound shots leave a partial 16-lane group.
    Dem lp39 = circuitDem(code::benchmarkLp39, 3, 2e-3);
    Dem rqt54 = circuitDem(code::benchmarkRqt54, 4, 2e-3);
    Dem rqt54Heavy = circuitDem(code::benchmarkRqt54, 4, 2e-2);
    decoder::BpOsdOptions capped;
    capped.maxIterations = 3;
    struct Input
    {
        const char *name;
        const Dem *dem;
        std::size_t shots;
        decoder::BpOsdOptions opts;
    };
    for (const Input &in :
         {Input{"lp39", &lp39, 200, {}}, Input{"lp39 capped", &lp39, 200, capped},
          Input{"rqt54", &rqt54, 129, {}},
          Input{"rqt54 capped", &rqt54, 129, capped},
          Input{"rqt54 p=2e-2", &rqt54Heavy, 129, {}}}) {
        FrameBatch frames = sampleDemFrames(*in.dem, in.shots, 5);
        decoder::BpOsdDecoder dec(*in.dem, in.opts);
        std::vector<uint64_t> vec(frames.shots);
        dec.decodePacked(frames.view(), vec.data());
        std::vector<uint64_t> avx2 =
            decodeWithFlag("PROPHUNT_NO_AVX512", *in.dem, frames, in.opts);
        std::vector<uint64_t> gen =
            decodeWithFlag("PROPHUNT_NO_AVX2", *in.dem, frames, in.opts);
        EXPECT_EQ(vec, avx2) << in.name;
        EXPECT_EQ(vec, gen) << in.name;
        SampleBatch rows;
        transposeView(frames.view(), rows);
        if (in.dem == &rqt54Heavy) {
            std::size_t bpBound = frames.shots - trivialShots(*in.dem, rows);
            EXPECT_NE(bpBound % 16, 0u) << bpBound << " BP-bound shots";
        }
        auto tanner = decoder::BpOsdDecoder::buildTanner(*in.dem);
        oracles::LowWeightReference low(*tanner);
        std::vector<uint32_t> flipped;
        for (std::size_t s = 0; s < frames.shots; ++s) {
            rows.flippedDetectors(s, flipped);
            uint64_t ref =
                oracles::decodeReference(*tanner, low, in.opts, flipped);
            EXPECT_EQ(vec[s], ref) << in.name << " native, shot " << s;
            EXPECT_EQ(avx2[s], ref) << in.name << " NO_AVX512, shot " << s;
            EXPECT_EQ(gen[s], ref) << in.name << " NO_AVX2, shot " << s;
        }
    }
}

TEST(LaneDecode, DefaultAdapterServesRowDecoders)
{
    // A decoder without a native packed path is served by the base
    // decodePacked and must equal its own per-shot decode().
    code::SurfaceCode surface(3);
    auto cs = std::make_shared<const code::CssCode>(surface.code());
    auto circ = circuit::buildMemoryCircuit(
        circuit::colorationSchedule(cs), 3, circuit::MemoryBasis::Z);
    Dem dem = buildDem(circ, NoiseModel::uniform(5e-3));
    auto dec = decoder::Registry::make("union_find", dem, circ);
    FrameBatch frames = sampleDemFrames(dem, 259, 11);
    SampleBatch rows;
    transposeView(frames.view(), rows);
    std::vector<uint64_t> packed(frames.shots);
    decoder::PackedDecodeStats stats;
    dec->decodePacked(frames.view(), packed.data(), &stats);
    for (std::size_t s = 0; s < frames.shots; ++s) {
        EXPECT_EQ(packed[s], dec->decode(rows.flippedDetectors(s)))
            << "shot " << s;
    }
    EXPECT_EQ(stats.adapterShots, frames.shots);
    EXPECT_EQ(stats.packedShots, 0u);
}

TEST(LaneDecode, PaddingBitsBeyondShotsAreIgnored)
{
    // A FrameView may carry set bits beyond `shots` in each row's last
    // word. Both the lane engine and the base adapter must decode such a
    // view exactly like the clean one (and never index past the shots).
    auto cp = std::make_shared<const code::CssCode>(code::benchmarkLp39());
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            3, circuit::MemoryBasis::Z);
    Dem dem = buildDem(circ, NoiseModel::uniform(2e-3));
    FrameBatch clean = sampleDemFrames(dem, 37, 8);
    ASSERT_EQ(clean.shotWords, 1u);
    std::vector<uint64_t> dirtyDet = clean.det;
    for (uint64_t &word : dirtyDet) {
        word |= ~((uint64_t{1} << 37) - 1); // Every bit above shot 36.
    }
    FrameView dirty = clean.view();
    dirty.det = dirtyDet.data();
    std::vector<std::unique_ptr<decoder::Decoder>> decoders;
    decoders.push_back(decoder::Registry::make("bp_osd", dem, circ));
    decoders.push_back(decoder::Registry::make("union_find", dem, circ));
    for (auto &dec : decoders) {
        std::vector<uint64_t> want(clean.shots), got(clean.shots);
        dec->decodePacked(clean.view(), want.data());
        dec->decodePacked(dirty, got.data());
        EXPECT_EQ(got, want);
    }
}

TEST(LaneDecode, DecodesUniquelyExplainedLowWeightSyndromes)
{
    // A minimum-weight decoder decodes every syndrome whose explanations
    // of weight at most 2 all flip the same observables; BP+OSD must
    // return that mask too. lp39 at 3 rounds and p = 2e-3, and rqt54 at
    // 4 rounds and p = 1e-3 (the serve_lp39 and ler_rqt54 benchmark
    // shapes), coloration schedules, both memory bases.
    struct Cell
    {
        const char *name;
        code::CssCode (*build)();
        std::size_t rounds;
        double p;
        std::size_t shots;
    };
    for (const Cell &cell : {Cell{"lp39", code::benchmarkLp39, 3, 2e-3, 2048},
                             Cell{"rqt54", code::benchmarkRqt54, 4, 1e-3,
                                  2048}}) {
        for (circuit::MemoryBasis basis :
             {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
            Dem dem = circuitDem(cell.build(), cell.rounds, cell.p, basis);
            FrameBatch frames = sampleDemFrames(dem, cell.shots, 6007);
            decoder::BpOsdDecoder dec(dem);
            std::vector<uint64_t> pred(frames.shots);
            decoder::PackedDecodeStats stats;
            dec.decodePacked(frames.view(), pred.data(), &stats);
            SampleBatch rows;
            transposeView(frames.view(), rows);
            LowWeightOracle oracle(dem);
            std::size_t unique = 0, missed = 0, weightTwo = 0;
            std::vector<uint32_t> flipped;
            for (std::size_t s = 0; s < frames.shots; ++s) {
                rows.flippedDetectors(s, flipped);
                if (flipped.empty()) {
                    continue;
                }
                LowWeightOracle::Verdict v = oracle.verdict(flipped);
                unique += v.unique.has_value();
                missed += v.unique && *v.unique != pred[s];
                weightTwo += v.unique && !v.weightOne;
            }
            std::string label = std::string(cell.name) +
                                (basis == circuit::MemoryBasis::Z ? " Z"
                                                                  : " X");
            EXPECT_GT(unique, 0u) << label;
            EXPECT_EQ(missed, 0u) << label << ": " << unique
                                  << " uniquely explained shots";
            // One decodePacked call is one shard: the stage resolved
            // exactly the shots with agreeing weight-2 explanations and
            // no weight-1 one.
            EXPECT_GT(weightTwo, 0u) << label;
            EXPECT_EQ(stats.lowWeightShots, weightTwo) << label;
        }
    }
}

TEST(LaneDecode, GoldenOutputsOnBenchmarkCodes)
{
    // Pinned default-options decodePacked outputs: an FNV-1a hash of the
    // per-shot predictions, the failure count, and osdShots per (code, p,
    // basis) cell at fixed sampling seeds. Any change to what the BP+OSD
    // decoder predicts on the benchmark codes — BP arithmetic, stopping
    // rules, OSD pivot order, the low-weight stage — moves at least one
    // of these constants. The weight-2 stage moved osdShots in every
    // p = 1e-3 and 4e-3 cell, and the predictions of the cells where it
    // corrects BP+OSD (every rqt54 cell and lp39 4e-3 X); the surface,
    // rqt60 and other lp39 predictions did not change. Single-precision
    // BP moved the predictions of rqt54 1e-3 Z and 4e-3 Z/X only, with
    // no failure count or osdShots changed.
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
        {"surface3", 1e-3, MemoryBasis::Z, 9042513869818124195ull, 0, 0},
        {"surface3", 1e-3, MemoryBasis::X, 15671602179283603266ull, 1, 1},
        {"surface3", 4e-3, MemoryBasis::Z, 12433859014133703011ull, 6, 10},
        {"surface3", 4e-3, MemoryBasis::X, 3708676697114346402ull, 4, 8},
        {"surface5", 1e-3, MemoryBasis::Z, 15053811675821901602ull, 1, 15},
        {"surface5", 1e-3, MemoryBasis::X, 13847107380374571810ull, 1, 10},
        {"surface5", 4e-3, MemoryBasis::Z, 4519325614385277571ull, 4, 196},
        {"surface5", 4e-3, MemoryBasis::X, 13833945219477208162ull, 7, 167},
        {"lp39", 1e-3, MemoryBasis::Z, 18000601530091996035ull, 1, 7},
        {"lp39", 1e-3, MemoryBasis::X, 3675279716225523365ull, 1, 8},
        {"lp39", 4e-3, MemoryBasis::Z, 15745982174862581475ull, 26, 182},
        {"lp39", 4e-3, MemoryBasis::X, 11855521470808384359ull, 16, 194},
        {"rqt54", 1e-3, MemoryBasis::Z, 2818159568944074019ull, 56, 108},
        {"rqt54", 1e-3, MemoryBasis::X, 13152566086504287654ull, 52, 97},
        {"rqt54", 4e-3, MemoryBasis::Z, 3471823804916291080ull, 459, 775},
        {"rqt54", 4e-3, MemoryBasis::X, 2930323154920344434ull, 487, 810},
        {"rqt60", 1e-3, MemoryBasis::Z, 18413573488877339427ull, 0, 24},
        {"rqt60", 1e-3, MemoryBasis::X, 7175403773689132768ull, 0, 44},
        {"rqt60", 4e-3, MemoryBasis::Z, 17600379692024172579ull, 3, 401},
        {"rqt60", 4e-3, MemoryBasis::X, 13348434726898820162ull, 2, 429},
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
        GoldenDigest got = goldenDigest(dem, kShots, seed++);
        std::string label = name + " p=" + std::to_string(cell.p) +
                            (cell.basis == MemoryBasis::Z ? " Z" : " X");
        EXPECT_EQ(got.hash, cell.hash) << label;
        EXPECT_EQ(got.failures, cell.failures) << label;
        EXPECT_EQ(got.osdShots, cell.osdShots) << label;
    }
}

TEST(LaneDecode, GoldenOutputsOnRqt54BenchmarkShape)
{
    // The same digest at the shape of the ler_rqt54 benchmark workload:
    // rqt54 coloration, 4 rounds, 4096 shots per cell, at the benchmark's
    // p = 1e-3 and at an OSD-heavy p = 2e-2 where nearly every shot
    // reaches the OSD post-pass. Pins BP's message arithmetic on
    // degree-190 detectors and the OSD ranking over 7,371 columns.
    struct Cell
    {
        double p;
        circuit::MemoryBasis basis;
        uint64_t hash;
        std::size_t failures;
        uint64_t osdShots;
    };
    using circuit::MemoryBasis;
    const Cell cells[] = {
        {1e-3, MemoryBasis::Z, 14631440606716801933ull, 395, 749},
        {1e-3, MemoryBasis::X, 7565255686832019756ull, 357, 716},
        {2e-2, MemoryBasis::Z, 1470811339664621087ull, 4084, 4096},
        {2e-2, MemoryBasis::X, 15482782058954151322ull, 4083, 4096},
    };
    constexpr std::size_t kShots = 4096;
    uint64_t seed = 3001;
    for (const Cell &cell : cells) {
        Dem dem = circuitDem(code::benchmarkRqt54(), 4, cell.p, cell.basis);
        GoldenDigest got = goldenDigest(dem, kShots, seed++);
        std::string label = "rqt54 p=" + std::to_string(cell.p) +
                            (cell.basis == MemoryBasis::Z ? " Z" : " X");
        EXPECT_EQ(got.hash, cell.hash) << label;
        EXPECT_EQ(got.failures, cell.failures) << label;
        EXPECT_EQ(got.osdShots, cell.osdShots) << label;
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
    decoder::LerOptions opts;
    opts.shardShots = 128;
    decoder::LerResult serial =
        oracles::measureDemLer(dem, dec, 1500, 31, opts);
    EXPECT_EQ(serial.shots, 1500u);
    EXPECT_EQ(serial.packed.packedShots, 1500u);
    EXPECT_GT(serial.packed.laneSlotsTotal, 0u);
    EXPECT_GT(serial.packed.lowWeightShots, 0u);
    for (std::size_t threads : {1u, 2u, 4u}) {
        opts.threads = threads;
        decoder::LerResult par =
            oracles::serviceMeasure(dem, dec, 1500, 31, opts);
        EXPECT_EQ(serial.failures, par.failures) << threads << " threads";
        EXPECT_EQ(serial.shots, par.shots) << threads << " threads";
        EXPECT_EQ(serial.packed.laneSlotsBusy, par.packed.laneSlotsBusy)
            << threads << " threads";
        EXPECT_EQ(serial.packed.lowWeightShots, par.packed.lowWeightShots)
            << threads << " threads";
    }
    // Different shard sizes change the lane co-residency completely; the
    // failure count must not move (shot-order invariance).
    opts.shardShots = 1500;
    decoder::LerResult one = oracles::serviceMeasure(dem, dec, 1500, 31, opts);
    // Shard seeds differ between plans, so compare against a direct
    // whole-batch decode at the single-shard seed instead.
    FrameBatch frames = sampleDemFrames(dem, 1500, shardSeed(31, 0));
    std::vector<uint64_t> pred(frames.shots);
    decoder::PackedDecodeStats whole;
    dec.decodePacked(frames.view(), pred.data(), &whole);
    std::vector<uint64_t> masks;
    frames.obsMasks(masks);
    std::size_t failures = 0;
    for (std::size_t s = 0; s < frames.shots; ++s) {
        failures += pred[s] != masks[s];
    }
    EXPECT_EQ(one.failures, failures);
    EXPECT_EQ(one.packed.lowWeightShots, whole.lowWeightShots);
}

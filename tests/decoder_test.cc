/**
 * @file
 * Tests for matching-graph construction, the union-find decoder (against
 * pinned goldens and the dense oracle), BP+OSD, the exact MLE oracle (test
 * support), and the LER harness.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "decoder/bp_osd.h"
#include "decoder/logical_error.h"
#include "decoder/matching_graph.h"
#include "decoder/union_find.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/rng.h"
#include "support/mle.h"
#include "support/sampling.h"
#include "support/union_find_reference.h"

using namespace prophunt;
using namespace prophunt::decoder;

namespace {

struct Harness
{
    circuit::SmCircuit circ;
    sim::Dem dem;
};

Harness
surfaceSetup(std::size_t d, double p, circuit::MemoryBasis basis,
             bool use_nz = true)
{
    code::SurfaceCode s(d);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    circuit::SmSchedule sched = use_nz ? circuit::nzSchedule(s)
                                       : circuit::colorationSchedule(cp);
    Harness out{circuit::buildMemoryCircuit(sched, d, basis), {}};
    out.dem = sim::buildDem(out.circ, sim::NoiseModel::uniform(p));
    return out;
}

} // namespace

TEST(MatchingGraph, SurfaceDemIsGraphLike)
{
    Harness s = surfaceSetup(3, 1e-3, circuit::MemoryBasis::Z);
    MatchingGraph g = buildMatchingGraph(s.dem, s.circ);
    EXPECT_EQ(g.numDetectors, s.dem.numDetectors);
    EXPECT_GT(g.edges.size(), 0u);
    EXPECT_EQ(g.fallbackDecompositions, 0u)
        << "surface-code DEM should decompose into known edges";
    for (const auto &e : g.edges) {
        EXPECT_LT(e.u, g.numDetectors);
        EXPECT_TRUE(e.v == MatchEdge::kBoundary || e.v < g.numDetectors);
    }
}

TEST(UnionFind, EmptySyndromeGivesNoFlips)
{
    Harness s = surfaceSetup(3, 1e-3, circuit::MemoryBasis::Z);
    UnionFindDecoder uf(buildMatchingGraph(s.dem, s.circ));
    EXPECT_EQ(uf.decode({}), 0u);
}

TEST(UnionFind, SingleEdgeSyndromeCorrected)
{
    Harness s = surfaceSetup(3, 1e-3, circuit::MemoryBasis::Z);
    MatchingGraph g = buildMatchingGraph(s.dem, s.circ);
    UnionFindDecoder uf(g);
    // Fire each single mechanism; the decoder must predict its observable.
    std::size_t checked = 0;
    for (const auto &mech : s.dem.errors) {
        if (mech.detectors.empty()) {
            continue;
        }
        uint64_t obs = 0;
        for (uint32_t o : mech.observables) {
            obs |= uint64_t{1} << o;
        }
        uint64_t predicted = uf.decode(mech.detectors);
        EXPECT_EQ(predicted, obs)
            << "mechanism with " << mech.detectors.size() << " detectors";
        ++checked;
    }
    EXPECT_GT(checked, 50u);
}

TEST(UnionFind, GoldenOutputsOnBenchmarkCodes)
{
    // Pinned union-find decodePacked outputs: an FNV-1a hash of the
    // per-shot predictions and the failure count per (schedule, basis, p)
    // cell at fixed sampling seeds. Any change to what the decoder
    // predicts (growth order, peeling forest, boundary handling) moves at
    // least one of these constants. The p = 2e-2 cells reuse one decoder
    // over thousands of crowded shots, which is where state leaking from
    // one shot into the next shows. The LDPC cells exercise the matching
    // graph's hyperedge decomposition: lp39's hyperedges all split into
    // known edges, rqt54's also need the sequential-pairing fallback.
    using circuit::MemoryBasis;
    struct Cell
    {
        const char *schedule;
        MemoryBasis basis;
        double p;
        uint64_t hash;
        std::size_t failures;
    };
    const Cell cells[] = {
        {"surface3", MemoryBasis::Z, 1e-3, 7920269734312448418ull, 2},
        {"surface3", MemoryBasis::Z, 4e-3, 5846544930292254627ull, 43},
        {"surface3", MemoryBasis::Z, 2e-2, 11197648166588776930ull, 445},
        {"surface3", MemoryBasis::X, 1e-3, 6047651380564706ull, 6},
        {"surface3", MemoryBasis::X, 4e-3, 6303362598131119874ull, 61},
        {"surface3", MemoryBasis::X, 2e-2, 5010362928994448098ull, 552},
        {"surface5", MemoryBasis::Z, 1e-3, 10655474754300162659ull, 0},
        {"surface5", MemoryBasis::Z, 4e-3, 10332147365459412867ull, 27},
        {"surface5", MemoryBasis::Z, 2e-2, 5502644874462544131ull, 1009},
        {"surface5", MemoryBasis::X, 1e-3, 18173825926678741666ull, 3},
        {"surface5", MemoryBasis::X, 4e-3, 2200958146461553474ull, 67},
        {"surface5", MemoryBasis::X, 2e-2, 11981250930506386051ull, 1109},
        {"surface7", MemoryBasis::Z, 1e-3, 8117107419231663938ull, 0},
        {"surface7", MemoryBasis::Z, 4e-3, 12563043175776164515ull, 14},
        {"surface7", MemoryBasis::Z, 2e-2, 18089003364501916931ull, 1538},
        {"surface7", MemoryBasis::X, 1e-3, 10760006672000846243ull, 1},
        {"surface7", MemoryBasis::X, 4e-3, 16482438080266756451ull, 35},
        {"surface7", MemoryBasis::X, 2e-2, 3866979435002871683ull, 1583},
        {"nz5", MemoryBasis::Z, 1e-3, 14183177303812347299ull, 2},
        {"nz5", MemoryBasis::Z, 4e-3, 9998749003810530435ull, 30},
        {"nz5", MemoryBasis::Z, 2e-2, 1695385964714184482ull, 1005},
        {"nz5", MemoryBasis::X, 1e-3, 2054500037474384322ull, 0},
        {"nz5", MemoryBasis::X, 4e-3, 17801405822231437762ull, 23},
        {"nz5", MemoryBasis::X, 2e-2, 9516439788436115394ull, 1008},
        {"poor5", MemoryBasis::Z, 1e-3, 16426107549175893250ull, 11},
        {"poor5", MemoryBasis::Z, 4e-3, 6814186563561579875ull, 105},
        {"poor5", MemoryBasis::Z, 2e-2, 12439286579930326626ull, 1245},
        {"poor5", MemoryBasis::X, 1e-3, 2422261600285235139ull, 4},
        {"poor5", MemoryBasis::X, 4e-3, 18432690901881465187ull, 65},
        {"poor5", MemoryBasis::X, 2e-2, 3686087746984729059ull, 1218},
        {"flagged3", MemoryBasis::Z, 1e-3, 5356379476940719778ull, 3},
        {"flagged3", MemoryBasis::Z, 4e-3, 13703914290100471458ull, 37},
        {"flagged3", MemoryBasis::Z, 2e-2, 13626521929645398339ull, 660},
        {"flagged3", MemoryBasis::X, 1e-3, 3405579389501276643ull, 1},
        {"flagged3", MemoryBasis::X, 4e-3, 15689548371671184354ull, 44},
        {"flagged3", MemoryBasis::X, 2e-2, 96293540108491203ull, 588},
        {"lp39", MemoryBasis::Z, 1e-3, 8692491522183685664ull, 7},
        {"lp39", MemoryBasis::Z, 4e-3, 3990145981774106052ull, 90},
        {"lp39", MemoryBasis::Z, 2e-2, 14565902935489610144ull, 1355},
        {"lp39", MemoryBasis::X, 1e-3, 13092758680399965222ull, 5},
        {"lp39", MemoryBasis::X, 4e-3, 7850756203354664002ull, 87},
        {"lp39", MemoryBasis::X, 2e-2, 11535837849071463972ull, 1356},
        {"rqt54", MemoryBasis::Z, 1e-3, 2448733105800408733ull, 1414},
        {"rqt54", MemoryBasis::Z, 4e-3, 7600696838663567342ull, 3295},
        {"rqt54", MemoryBasis::Z, 2e-2, 7173160966658708028ull, 4093},
        {"rqt54", MemoryBasis::X, 1e-3, 10384574998579018589ull, 1307},
        {"rqt54", MemoryBasis::X, 4e-3, 9314356765472822767ull, 3169},
        {"rqt54", MemoryBasis::X, 2e-2, 8367661201947459856ull, 4090},
    };
    constexpr std::size_t kShots = 4096;
    uint64_t seed = 2901;
    for (const Cell &cell : cells) {
        std::string name = cell.schedule;
        std::size_t d = name == "surface7"                         ? 7
                        : name == "surface3" || name == "flagged3" ? 3
                                                                   : 5;
        bool ldpc = name == "lp39" || name == "rqt54";
        std::size_t rounds = ldpc ? 3 : d;
        circuit::SmSchedule sched = [&] {
            if (ldpc) {
                return circuit::colorationSchedule(
                    std::make_shared<const code::CssCode>(
                        name == "lp39" ? code::benchmarkLp39()
                                       : code::benchmarkRqt54()));
            }
            code::SurfaceCode s(d);
            if (name == "nz5") {
                return circuit::nzSchedule(s);
            }
            if (name == "poor5") {
                return circuit::poorSurfaceSchedule(s);
            }
            return circuit::colorationSchedule(
                std::make_shared<const code::CssCode>(s.code()));
        }();
        auto circ = circuit::buildMemoryCircuit(sched, rounds, cell.basis,
                                                name == "flagged3" ? 4 : 0);
        sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(cell.p));
        sim::FrameBatch frames = sim::sampleDemFrames(dem, kShots, seed++);
        MatchingGraph graph = buildMatchingGraph(dem, circ);
        if (name == "rqt54") {
            EXPECT_GT(graph.fallbackDecompositions, 0u);
        }
        UnionFindDecoder uf(std::move(graph));
        std::vector<uint64_t> pred(kShots);
        uf.decodePacked(frames.view(), pred.data());
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
    }
}

TEST(UnionFind, MatchesDenseOracleOnMixedShotStream)
{
    // One decoder object decodes a stream that mixes random defect sets
    // (weights 1-40, odd ones included), shots sampled at p = 2e-2 and
    // empty shots. Every prediction must equal the dense oracle's, so no
    // state may leak from one shot into the next.
    constexpr std::size_t kShots = 3000;
    uint64_t seed = 71;
    for (auto basis : {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
        code::SurfaceCode s(7);
        auto circ = circuit::buildMemoryCircuit(
            circuit::colorationSchedule(
                std::make_shared<const code::CssCode>(s.code())),
            7, basis);
        sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(2e-2));
        MatchingGraph graph = buildMatchingGraph(dem, circ);
        oracles::DenseUnionFind dense(graph);
        UnionFindDecoder sparse(std::move(graph));
        sim::SampleBatch rows = oracles::sampleDem(dem, kShots, seed++);
        sim::Rng rng(seed++);
        std::vector<uint32_t> shot;
        std::vector<uint8_t> picked(dem.numDetectors);
        std::size_t compared = 0, mismatches = 0;
        auto check = [&](const char *kind, std::size_t i) {
            uint64_t want = dense.decode(shot);
            uint64_t got = sparse.decode(shot);
            ++compared;
            if (got != want && ++mismatches <= 5) {
                ADD_FAILURE() << kind << " shot " << i << ": sparse " << got
                              << ", dense " << want;
            }
        };
        for (std::size_t i = 0; i < kShots; ++i) {
            std::size_t weight = 1 + rng.below(40);
            shot.clear();
            std::fill(picked.begin(), picked.end(), 0);
            while (shot.size() < weight) {
                uint32_t d = (uint32_t)rng.below(dem.numDetectors);
                if (!picked[d]) {
                    picked[d] = 1;
                    shot.push_back(d);
                }
            }
            std::sort(shot.begin(), shot.end());
            check("random", i);
            rows.flippedDetectors(i, shot);
            check("sampled", i);
            if (i % 3 == 0) {
                shot.clear();
                check("empty", i);
            }
        }
        EXPECT_EQ(compared, 2 * kShots + kShots / 3);
        EXPECT_EQ(mismatches, 0u);
    }
}

TEST(BpOsd, SingleMechanismsCorrected)
{
    Harness s = surfaceSetup(3, 1e-3, circuit::MemoryBasis::Z);
    BpOsdDecoder bp(s.dem);
    for (const auto &mech : s.dem.errors) {
        if (mech.detectors.empty()) {
            continue;
        }
        uint64_t obs = 0;
        for (uint32_t o : mech.observables) {
            obs |= uint64_t{1} << o;
        }
        EXPECT_EQ(bp.decode(mech.detectors), obs);
    }
}

TEST(BpOsd, AgreesWithMleOnSampledShots)
{
    // Tiny model where MLE is exact: d=3, one round.
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    auto circ = circuit::buildMemoryCircuit(circuit::nzSchedule(s), 1,
                                            circuit::MemoryBasis::Z);
    sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(2e-3));
    BpOsdDecoder bp(dem);
    oracles::MleDecoder mle(dem, 4);
    sim::SampleBatch batch = oracles::sampleDem(dem, 400, 3);
    std::size_t bp_fail = 0, mle_fail = 0;
    for (std::size_t shot = 0; shot < 400; ++shot) {
        auto flipped = batch.flippedDetectors(shot);
        uint64_t actual = batch.obsMask(shot);
        bp_fail += bp.decode(flipped) != actual;
        mle_fail += mle.decode(flipped) != actual;
    }
    // BP+OSD should not lose badly to exact MLE.
    EXPECT_LE(bp_fail, mle_fail + 4);
}

TEST(UnionFind, NearMleAccuracy)
{
    code::SurfaceCode s(3);
    auto circ = circuit::buildMemoryCircuit(circuit::nzSchedule(s), 1,
                                            circuit::MemoryBasis::Z);
    sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(2e-3));
    UnionFindDecoder uf(buildMatchingGraph(dem, circ));
    oracles::MleDecoder mle(dem, 4);
    sim::SampleBatch batch = oracles::sampleDem(dem, 400, 5);
    std::size_t uf_fail = 0, mle_fail = 0;
    for (std::size_t shot = 0; shot < 400; ++shot) {
        auto flipped = batch.flippedDetectors(shot);
        uint64_t actual = batch.obsMask(shot);
        uf_fail += uf.decode(flipped) != actual;
        mle_fail += mle.decode(flipped) != actual;
    }
    EXPECT_LE(uf_fail, mle_fail + 6);
}

TEST(LogicalError, LerDecreasesWithPhysicalRate)
{
    code::SurfaceCode s(3);
    circuit::SmSchedule nz = circuit::nzSchedule(s);
    auto at = [&](double p) {
        return oracles::measureMemoryLer(nz, 3, sim::NoiseModel::uniform(p),
                                         "union_find", 20000, 17)
            .combined();
    };
    double high = at(8e-3), low = at(1e-3);
    EXPECT_GT(high, low);
    EXPECT_GT(high, 2.0 * low);
}

TEST(LogicalError, DistanceSuppressesLer)
{
    auto ler_for = [&](std::size_t d) {
        code::SurfaceCode s(d);
        return oracles::measureMemoryLer(circuit::nzSchedule(s), d,
                                         sim::NoiseModel::uniform(3e-3),
                                         "union_find", 10000, 23)
            .combined();
    };
    // Below threshold, d=5 beats d=3.
    EXPECT_LT(ler_for(5), ler_for(3));
}

TEST(LogicalError, NzBeatsPoorSchedule)
{
    code::SurfaceCode s(5);
    double nz = oracles::measureMemoryLer(circuit::nzSchedule(s), 5,
                                          sim::NoiseModel::uniform(3e-3),
                                          "union_find", 8000, 31)
                    .combined();
    double poor =
        oracles::measureMemoryLer(circuit::poorSurfaceSchedule(s), 5,
                                  sim::NoiseModel::uniform(3e-3),
                                  "union_find", 8000, 31)
            .combined();
    EXPECT_LT(nz, poor);
}

TEST(LogicalError, BpOsdHandlesLdpcCode)
{
    auto code = code::benchmarkLp39();
    auto cp = std::make_shared<const code::CssCode>(code);
    circuit::SmSchedule sched = circuit::colorationSchedule(cp);
    decoder::MemoryLer ler =
        oracles::measureMemoryLer(sched, 3, sim::NoiseModel::uniform(1e-3),
                                  "bp_osd", 2000, 41);
    // Sanity: decodes most shots correctly at this rate.
    EXPECT_LT(ler.combined(), 0.25);
}

TEST(Mle, PrefersLikelierExplanation)
{
    sim::Dem dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    sim::ErrorMechanism cheap, exp1, exp2;
    cheap.p = 0.01; // one error explains both detectors, flips observable
    cheap.detectors = {0, 1};
    cheap.observables = {0};
    exp1.p = 0.001;
    exp1.detectors = {0};
    exp2.p = 0.001;
    exp2.detectors = {1};
    dem.errors = {cheap, exp1, exp2};
    oracles::MleDecoder mle(dem, 4);
    // P(cheap)=0.01 > P(exp1)*P(exp2)=1e-6: predict the observable flip.
    EXPECT_EQ(mle.decode({0, 1}), 1u);
}

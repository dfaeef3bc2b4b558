/**
 * @file
 * Tests for matching-graph construction, the union-find decoder, BP+OSD,
 * the exact MLE oracle (test support), and the LER harness.
 */
#include <gtest/gtest.h>

#include <memory>

#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "decoder/bp_osd.h"
#include "decoder/logical_error.h"
#include "decoder/matching_graph.h"
#include "decoder/union_find.h"
#include "sim/dem_builder.h"
#include "sim/sampler.h"
#include "support/mle.h"

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
    sim::SampleBatch batch = sim::sampleDem(dem, 400, 3);
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
    sim::SampleBatch batch = sim::sampleDem(dem, 400, 5);
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
        return measureMemoryLer(nz, 3, sim::NoiseModel::uniform(p),
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
        return measureMemoryLer(circuit::nzSchedule(s), d,
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
    double nz = measureMemoryLer(circuit::nzSchedule(s), 5,
                                 sim::NoiseModel::uniform(3e-3),
                                 "union_find", 8000, 31)
                    .combined();
    double poor = measureMemoryLer(circuit::poorSurfaceSchedule(s), 5,
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
        measureMemoryLer(sched, 3, sim::NoiseModel::uniform(1e-3),
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

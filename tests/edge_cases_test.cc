/**
 * @file
 * Edge cases and failure-path tests across modules: timeout behavior,
 * hyperedge decomposition, coloration phase structure, optimizer
 * ablations, and small pathological inputs.
 */
#include <gtest/gtest.h>
#include <chrono>

#include <memory>

#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "decoder/matching_graph.h"
#include "decoder/union_find.h"
#include "prophunt/minweight.h"
#include "prophunt/optimizer.h"
#include "sat/maxsat.h"
#include "sim/dem_builder.h"

using namespace prophunt;

TEST(MaxSatTimeout, GlobalFormulationTimesOutGracefully)
{
    // The [[60,2,6]] global model is intractable at tiny timeouts — the
    // Table 2 behavior. The solver must return within the budget with
    // timedOut set, not hang or crash.
    auto cp =
        std::make_shared<const code::CssCode>(code::benchmarkRqt60());
    auto circ = circuit::buildMemoryCircuit(
        circuit::colorationSchedule(cp), 6, circuit::MemoryBasis::Z);
    sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(1e-3));
    auto t0 = std::chrono::steady_clock::now();
    core::MinWeightResult mw = core::solveGlobalMinWeight(dem, 8, 0.5);
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    EXPECT_TRUE(mw.stats.timedOut || mw.found);
    // Encoding time is excluded from the solve budget; still, the call
    // must come back quickly.
    EXPECT_LT(elapsed, 30.0);
    EXPECT_GT(mw.stats.variables, 10000u);
}

TEST(MatchingGraph, HyperedgeDecomposesIntoKnownEdges)
{
    // Craft a DEM: two edges (0,1) and (2,3), plus a 4-detector
    // mechanism {0,1,2,3} that must decompose into those two edges.
    sim::Dem dem;
    dem.numDetectors = 4;
    dem.numObservables = 1;
    sim::ErrorMechanism e01, e23, hyper;
    e01.p = 1e-3;
    e01.detectors = {0, 1};
    e23.p = 1e-3;
    e23.detectors = {2, 3};
    // More likely than the plain edges, so its observable branch wins
    // the parallel-edge merge.
    hyper.p = 0.1;
    hyper.detectors = {0, 1, 2, 3};
    hyper.observables = {0};
    dem.errors = {e01, e23, hyper};

    // Build a minimal fake circuit for sector labels: one Z check.
    circuit::SmCircuit circ;
    circ.numData = 1;
    circ.numQubits = 2;
    circ.basis = circuit::MemoryBasis::Z;
    circ.instructions.push_back(
        {circuit::OpType::MeasureZ, {1}}); // check 0 measured in Z
    circ.detectorSource = {{0, 0}, {0, 1}, {0, 2}, {0, 3}};
    decoder::MatchingGraph g = decoder::buildMatchingGraph(dem, circ);
    EXPECT_EQ(g.fallbackDecompositions, 0u);
    // All edges must be pairwise (u, v < 4); the hyperedge contributed
    // its observable to one of the two pieces.
    uint64_t obs_seen = 0;
    for (const auto &e : g.edges) {
        EXPECT_NE(e.v, decoder::MatchEdge::kBoundary);
        obs_seen |= e.obsMask;
    }
    EXPECT_EQ(obs_seen, 1u);
}

TEST(MatchingGraph, UnknownHyperedgeFallsBack)
{
    sim::Dem dem;
    dem.numDetectors = 4;
    dem.numObservables = 0;
    sim::ErrorMechanism hyper;
    hyper.p = 1e-4;
    hyper.detectors = {0, 1, 2, 3};
    dem.errors = {hyper};
    circuit::SmCircuit circ;
    circ.numData = 1;
    circ.numQubits = 2;
    circ.basis = circuit::MemoryBasis::Z;
    circ.instructions.push_back({circuit::OpType::MeasureZ, {1}});
    circ.detectorSource = {{0, 0}, {0, 1}, {0, 2}, {0, 3}};
    decoder::MatchingGraph g = decoder::buildMatchingGraph(dem, circ);
    EXPECT_EQ(g.fallbackDecompositions, 1u);
    EXPECT_EQ(g.edges.size(), 2u); // sequential pairing
}

TEST(Coloration, XBeforeZOnEverySharedQubit)
{
    // The sequential coloration runs every X-check CNOT before every
    // Z-check CNOT *on each shared data qubit* — all crossings, an even
    // count, which is what makes it commutation-valid for all CSS codes.
    // (The minimal layering may interleave the phases globally; only the
    // per-qubit order matters.)
    for (const code::CssCode &c : code::allBenchmarkCodes()) {
        auto cp = std::make_shared<const code::CssCode>(c);
        circuit::SmSchedule s = circuit::colorationSchedule(cp);
        for (std::size_t q = 0; q < c.n(); ++q) {
            bool seen_z = false;
            for (std::size_t chk : s.qubitOrder(q)) {
                if (c.isXCheck(chk)) {
                    EXPECT_FALSE(seen_z)
                        << c.name() << " qubit " << q
                        << ": X CNOT after a Z CNOT";
                } else {
                    seen_z = true;
                }
            }
        }
    }
}

TEST(Coloration, DepthBoundedByDegreeSum)
{
    // Greedy edge coloring uses at most 2*Delta - 1 colors per phase.
    for (const code::CssCode &c : code::allBenchmarkCodes()) {
        auto cp = std::make_shared<const code::CssCode>(c);
        circuit::SmSchedule s = circuit::colorationSchedule(cp);
        std::size_t max_check_w = c.maxCheckWeight();
        std::size_t max_qubit_deg = 0;
        for (std::size_t q = 0; q < c.n(); ++q) {
            max_qubit_deg =
                std::max(max_qubit_deg, s.qubitOrder(q).size());
        }
        std::size_t delta = std::max(max_check_w, max_qubit_deg);
        EXPECT_LE(s.depth(), 2 * (2 * delta - 1)) << c.name();
    }
}

TEST(OptimizerAblation, NoVerifyStillProducesValidSchedules)
{
    code::SurfaceCode s(3);
    core::PropHuntOptions opts;
    opts.iterations = 3;
    opts.samplesPerIteration = 100;
    opts.verifyAmbiguityRemoval = false;
    opts.seed = 41;
    opts.threads = 1; // One sampling worker: machine-independent trajectory.
    core::PropHunt tool(opts);
    core::OptimizeResult res =
        tool.optimize(circuit::poorSurfaceSchedule(s), 3);
    EXPECT_TRUE(res.finalSchedule().commutationValid());
    EXPECT_TRUE(res.finalSchedule().schedulable());
}

TEST(OptimizerAblation, VerificationPrunesMoreThanValidityAlone)
{
    code::SurfaceCode s(3);
    auto run = [&](bool verify) {
        core::PropHuntOptions opts;
        opts.iterations = 2;
        opts.samplesPerIteration = 100;
        opts.verifyAmbiguityRemoval = verify;
        opts.seed = 43;
        opts.threads = 1; // One sampling worker: machine-independent trajectory.
        core::PropHunt tool(opts);
        core::OptimizeResult res =
            tool.optimize(circuit::poorSurfaceSchedule(s), 3);
        std::size_t verified = 0;
        for (const auto &rec : res.history) {
            verified += rec.changesVerified;
        }
        return verified;
    };
    EXPECT_LT(run(true), run(false));
}

TEST(UnionFind, IsolatedDefectPairMatchesThroughChain)
{
    // Hand-built path graph: 0-1-2-3 with boundary at both ends; flip
    // detectors 1 and 2: the cheapest explanation is the middle edge.
    decoder::MatchingGraph g;
    g.numDetectors = 4;
    g.edges.push_back({0, decoder::MatchEdge::kBoundary, 1, 0.01});
    g.edges.push_back({0, 1, 0, 0.01});
    g.edges.push_back({1, 2, 1, 0.01}); // middle edge flips observable
    g.edges.push_back({2, 3, 0, 0.01});
    g.edges.push_back({3, decoder::MatchEdge::kBoundary, 1, 0.01});
    decoder::UnionFindDecoder uf(g);
    EXPECT_EQ(uf.decode({1, 2}), 1u);
    // Single defect at the end: boundary match.
    EXPECT_EQ(uf.decode({0}), 1u);
    // Defects at 0 and 1: interior edge 0-1, no observable.
    EXPECT_EQ(uf.decode({0, 1}), 0u);
}

TEST(SmallCodes, RepetitionCodeEndToEnd)
{
    // Three-qubit repetition code (Z checks only, protects against X).
    gf2::Matrix hz = gf2::Matrix::fromRows({{1, 1, 0}, {0, 1, 1}});
    auto cp = std::make_shared<const code::CssCode>(
        code::CssCode(gf2::Matrix(0, 3), hz, "rep3"));
    EXPECT_EQ(cp->k(), 1u);
    circuit::SmSchedule s = circuit::colorationSchedule(cp);
    EXPECT_TRUE(s.commutationValid());
    auto circ =
        circuit::buildMemoryCircuit(s, 3, circuit::MemoryBasis::Z);
    sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(1e-3));
    EXPECT_GT(dem.errors.size(), 10u);
    // No single fault is an undetected logical.
    for (const auto &m : dem.errors) {
        EXPECT_FALSE(m.detectors.empty() && !m.observables.empty());
    }
    // d_eff should be 3 (the code distance; no hooks on weight-2 checks).
    core::MinWeightResult mw = core::solveGlobalMinWeight(dem, 5, 30.0);
    ASSERT_TRUE(mw.found);
    EXPECT_EQ(mw.weight, 3u);
}

TEST(SmallCodes, SteaneCodeHasDistanceReducingSchedules)
{
    // The paper (Section 3.1) notes all Steane-code CNOT orderings
    // produce distance-reducing hooks: the coloration circuit must show
    // d_eff < d = 3 in at least one basis.
    gf2::Matrix h = gf2::Matrix::fromRows({{1, 0, 1, 0, 1, 0, 1},
                                           {0, 1, 1, 0, 0, 1, 1},
                                           {0, 0, 0, 1, 1, 1, 1}});
    auto cp = std::make_shared<const code::CssCode>(
        code::CssCode(h, h, "steane"));
    circuit::SmSchedule s = circuit::colorationSchedule(cp);
    std::size_t deff = core::estimateEffectiveDistance(s, 3, 1e-3, 400, 7);
    EXPECT_LT(deff, 3u);
    EXPECT_GE(deff, 2u);
}

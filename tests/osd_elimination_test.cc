/**
 * @file
 * The gf2_dense subsystem and the packed OSD post-pass.
 *
 * Two layers of checks:
 *
 *  - Unit tests for DenseBitMat and Gf2Eliminator against the
 *    gf2::Matrix substrate: rank agreement on random matrices
 *    (round-tripped through both representations), solve round-trips
 *    (the eliminator's solution must reproduce a consistent RHS), and
 *    solvability agreement with the augmented-rank criterion, including
 *    duplicate/singular column sets and zero syndromes.
 *
 *  - Differential fuzz of the packed vs reference osdSolve through the
 *    BpOsdDecoder::osdPostPass seam and the full decode paths, over
 *    random DEMs and the lp39/rqt54 circuit DEMs: random posteriors,
 *    degenerate/tied posteriors (the pivot-order tie-break regression),
 *    all-zero syndromes, and OSD-forcing decode settings. The packed
 *    elimination must match the scalar reference bit for bit.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "circuit/coloration.h"
#include "code/codes.h"
#include "decoder/bp_osd.h"
#include "decoder/gf2_dense.h"
#include "gf2/bitvec.h"
#include "gf2/matrix.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/rng.h"

using namespace prophunt;
using namespace prophunt::decoder;

namespace {

gf2::Matrix
randomMatrix(std::size_t rows, std::size_t cols, std::mt19937_64 &rng,
             double density = 0.35)
{
    gf2::Matrix m(rows, cols);
    std::bernoulli_distribution bit(density);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if (bit(rng)) {
                m.set(r, c, true);
            }
        }
    }
    return m;
}

DenseBitMat
toDense(const gf2::Matrix &m)
{
    DenseBitMat d(m.rows(), m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            if (m.get(r, c)) {
                d.set(r, c);
            }
        }
    }
    return d;
}

/** Random sparse DEM; max_p close to 0.5 makes OSD work hard. */
sim::Dem
randomDem(uint64_t seed, std::size_t nd, std::size_t ne, double max_p,
          bool tied_priors = false)
{
    sim::Rng rng(seed);
    sim::Dem dem;
    dem.numDetectors = nd;
    dem.numObservables = 2;
    for (std::size_t e = 0; e < ne; ++e) {
        sim::ErrorMechanism mech;
        mech.p = tied_priors ? max_p : 1e-4 + rng.uniform() * max_p;
        std::size_t weight = 1 + rng.below(3);
        for (std::size_t k = 0; k < weight; ++k) {
            uint32_t d = (uint32_t)rng.below(nd);
            bool dup = false;
            for (uint32_t prev : mech.detectors) {
                dup = dup || prev == d;
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

sim::Dem
circuitDem(code::CssCode (*build)(), std::size_t rounds, double p)
{
    auto cp = std::make_shared<const code::CssCode>(build());
    auto circ = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                            rounds,
                                            circuit::MemoryBasis::Z);
    return buildDem(circ, sim::NoiseModel::uniform(p));
}

/** Run osdPostPass with both backends and require identical outcomes. */
void
expectBackendsAgree(BpOsdDecoder &dec, const sim::Dem &dem,
                    const std::vector<uint32_t> &cols,
                    const std::vector<double> &post,
                    const std::vector<uint32_t> &flipped)
{
    std::vector<uint8_t> usesPacked, usesScalar;
    bool packedOk = dec.osdPostPass(cols, post, flipped, true, usesPacked);
    bool scalarOk = dec.osdPostPass(cols, post, flipped, false, usesScalar);
    ASSERT_EQ(packedOk, scalarOk);
    ASSERT_EQ(usesPacked, usesScalar);
    if (!packedOk) {
        return;
    }
    // The solution must actually explain the syndrome: XOR of the used
    // columns' detector sets == the flipped set.
    std::vector<uint8_t> parity(dem.numDetectors, 0);
    for (std::size_t i = 0; i < cols.size(); ++i) {
        if (usesPacked[i]) {
            for (uint32_t d : dem.errors[cols[i]].detectors) {
                parity[d] ^= 1;
            }
        }
    }
    std::vector<uint8_t> expected(dem.numDetectors, 0);
    for (uint32_t d : flipped) {
        expected[d] = 1;
    }
    EXPECT_EQ(parity, expected);
}

} // namespace

TEST(DenseBitMat, SetGetClearXor)
{
    DenseBitMat m(3, 130);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 130u);
    EXPECT_EQ(m.rowWords(), 3u);
    m.set(0, 0);
    m.set(0, 64);
    m.set(0, 129);
    m.set(1, 64);
    EXPECT_TRUE(m.get(0, 64));
    EXPECT_FALSE(m.get(1, 0));
    m.xorRowInto(0, m.row(1));
    EXPECT_TRUE(m.get(1, 0));
    EXPECT_FALSE(m.get(1, 64));
    EXPECT_TRUE(m.get(1, 129));
    m.set(0, 64, false);
    EXPECT_FALSE(m.get(0, 64));
    m.clearRow(0);
    EXPECT_FALSE(m.get(0, 0));
    EXPECT_FALSE(m.get(0, 129));
    m.reset(2, 65);
    EXPECT_EQ(m.rowWords(), 2u);
    EXPECT_FALSE(m.get(1, 64));
}

TEST(DenseBitMat, RankMatchesGf2Matrix)
{
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 40; ++trial) {
        std::size_t rows = 1 + rng() % 24, cols = 1 + rng() % 90;
        gf2::Matrix m = randomMatrix(rows, cols, rng);
        EXPECT_EQ(toDense(m).rank(), m.rank()) << "trial " << trial;
    }
}

TEST(Gf2Eliminator, SolveRoundTripAgainstMatrix)
{
    std::mt19937_64 rng(11);
    for (int trial = 0; trial < 60; ++trial) {
        std::size_t nd = 1 + rng() % 40, ne = 1 + rng() % 50;
        gf2::Matrix h = randomMatrix(nd, ne, rng);
        // Consistent RHS from a random x.
        gf2::BitVec x(ne);
        for (std::size_t c = 0; c < ne; ++c) {
            if (rng() & 1) {
                x.set(c, true);
            }
        }
        gf2::BitVec b = h.mulVec(x);
        // Push the columns in a random order until solved.
        std::vector<uint32_t> perm(ne);
        std::iota(perm.begin(), perm.end(), 0);
        std::shuffle(perm.begin(), perm.end(), rng);

        Gf2Eliminator elim;
        elim.begin(nd);
        for (std::size_t d = 0; d < nd; ++d) {
            if (b.get(d)) {
                elim.setSyndromeBit(d);
            }
        }
        std::vector<uint64_t> col(elim.rowWords());
        std::vector<uint32_t> pushed;
        for (uint32_t pc : perm) {
            std::fill(col.begin(), col.end(), 0);
            for (std::size_t d = 0; d < nd; ++d) {
                if (h.get(d, pc)) {
                    col[d >> 6] |= uint64_t{1} << (d & 63);
                }
            }
            pushed.push_back(pc);
            if (elim.push(col.data())) {
                break;
            }
        }
        ASSERT_TRUE(elim.solved()) << "consistent system, trial " << trial;
        std::vector<uint32_t> sol;
        elim.solution(sol);
        gf2::BitVec acc(nd);
        for (uint32_t idx : sol) {
            acc ^= h.column(pushed[idx]);
        }
        EXPECT_EQ(acc, b) << "trial " << trial;
    }
}

TEST(Gf2Eliminator, UnsolvableMatchesAugmentedRank)
{
    std::mt19937_64 rng(13);
    std::size_t solvable = 0, unsolvable = 0;
    for (int trial = 0; trial < 60; ++trial) {
        // Skinny matrices make inconsistent RHS likely.
        std::size_t nd = 8 + rng() % 30, ne = 1 + rng() % 10;
        gf2::Matrix h = randomMatrix(nd, ne, rng);
        if (h.rank() == 0) {
            continue; // No pivot can ever exist; nothing to check.
        }
        gf2::BitVec b(nd);
        for (std::size_t d = 0; d < nd; ++d) {
            if (rng() & 1) {
                b.set(d, true);
            }
        }
        Gf2Eliminator elim;
        elim.begin(nd);
        for (std::size_t d = 0; d < nd; ++d) {
            if (b.get(d)) {
                elim.setSyndromeBit(d);
            }
        }
        std::vector<uint64_t> col(elim.rowWords());
        for (std::size_t pc = 0; pc < ne; ++pc) {
            std::fill(col.begin(), col.end(), 0);
            for (std::size_t d = 0; d < nd; ++d) {
                if (h.get(d, pc)) {
                    col[d >> 6] |= uint64_t{1} << (d & 63);
                }
            }
            elim.push(col.data());
        }
        // b in the column span of H <=> rank([H^T; b]) == rank(H^T)
        // over rows.
        gf2::Matrix ht = h.transpose();
        gf2::Matrix aug = ht;
        aug.appendRow(b);
        bool inSpan = aug.rank() == ht.rank();
        EXPECT_EQ(elim.solved(), inSpan) << "trial " << trial;
        (inSpan ? solvable : unsolvable) += 1;
        if (!elim.solved()) {
            // Every column was processed (no early freeze), so the
            // eliminator saw the full column space.
            EXPECT_EQ(elim.rank(), h.rank()) << "trial " << trial;
        }
    }
    // The sweep must actually exercise both outcomes.
    EXPECT_GT(solvable, 0u);
    EXPECT_GT(unsolvable, 0u);
}

TEST(Gf2Eliminator, ZeroSyndromeAndDuplicateColumns)
{
    // A zero syndrome is explainable by the empty set as soon as one
    // pivot exists (the reference elimination's behavior); duplicate
    // columns are dependent and never enter the solution.
    Gf2Eliminator elim;
    elim.begin(8);
    std::vector<uint64_t> col{0b0110};
    EXPECT_TRUE(elim.push(col.data()));
    EXPECT_TRUE(elim.solved());
    std::vector<uint32_t> sol;
    elim.solution(sol);
    EXPECT_TRUE(sol.empty());

    elim.begin(8);
    elim.setSyndromeBit(1);
    elim.setSyndromeBit(3);
    std::vector<uint64_t> a{0b0010}, dup{0b0010}, c{0b1000};
    EXPECT_FALSE(elim.push(a.data()));
    EXPECT_FALSE(elim.push(dup.data())); // dependent
    EXPECT_EQ(elim.rank(), 1u);
    EXPECT_TRUE(elim.push(c.data()));
    elim.solution(sol);
    EXPECT_EQ(sol, (std::vector<uint32_t>{0, 2}));
}

TEST(OsdPostPass, DifferentialFuzzRandomDems)
{
    for (uint64_t seed : {31u, 32u, 33u, 34u}) {
        sim::Dem dem = randomDem(seed, 36, 110, 0.2);
        BpOsdDecoder dec(dem);
        sim::Rng rng(seed * 17 + 5);
        for (int trial = 0; trial < 30; ++trial) {
            // Random region: a contiguous-ish random subset of columns.
            std::vector<uint32_t> cols;
            for (uint32_t c = 0; c < dem.errors.size(); ++c) {
                if (rng.below(3) != 0) {
                    cols.push_back(c);
                }
            }
            if (cols.empty()) {
                continue;
            }
            // Random syndrome over the region's detectors (may still be
            // unexplainable — both backends must agree on that too).
            std::vector<uint8_t> inRegion(dem.numDetectors, 0);
            for (uint32_t c : cols) {
                for (uint32_t d : dem.errors[c].detectors) {
                    inRegion[d] = 1;
                }
            }
            std::vector<uint32_t> flipped;
            for (uint32_t d = 0; d < dem.numDetectors; ++d) {
                if (inRegion[d] && rng.below(4) == 0) {
                    flipped.push_back(d);
                }
            }
            std::vector<double> post(cols.size());
            for (double &p : post) {
                p = rng.uniform() * 10.0 - 5.0;
            }
            expectBackendsAgree(dec, dem, cols, post, flipped);
        }
    }
}

TEST(OsdPostPass, TiedPosteriorsPickIdenticalPivotOrders)
{
    // Duplicated priors are the realistic source of exact posterior
    // ties; the tie-break by global column id must make the packed and
    // reference eliminations (and any region discovery order) pick the
    // same pivots. Regression test for the unstable posterior sort.
    sim::Dem dem = randomDem(77, 30, 90, 0.1, /*tied_priors=*/true);
    BpOsdDecoder dec(dem);
    sim::Rng rng(123);
    for (int trial = 0; trial < 25; ++trial) {
        std::vector<uint32_t> cols;
        for (uint32_t c = 0; c < dem.errors.size(); ++c) {
            cols.push_back(c);
        }
        std::vector<uint32_t> flipped;
        for (uint32_t d = 0; d < dem.numDetectors; ++d) {
            if (rng.below(3) == 0) {
                flipped.push_back(d);
            }
        }
        // Heavily tied posteriors: only 3 distinct values.
        std::vector<double> post(cols.size());
        for (double &p : post) {
            p = (double)rng.below(3) - 1.0;
        }
        expectBackendsAgree(dec, dem, cols, post, flipped);

        // The same region presented in a rotated column order must pick
        // the same solution as a set (order-invariance of the
        // tie-break): compare the used global column ids.
        std::vector<uint32_t> rotated(cols.begin() + 7, cols.end());
        rotated.insert(rotated.end(), cols.begin(), cols.begin() + 7);
        std::vector<double> rotatedPost(post.begin() + 7, post.end());
        rotatedPost.insert(rotatedPost.end(), post.begin(),
                           post.begin() + 7);
        std::vector<uint8_t> uses, rotatedUses;
        bool ok = dec.osdPostPass(cols, post, flipped, true, uses);
        bool rok =
            dec.osdPostPass(rotated, rotatedPost, flipped, true,
                            rotatedUses);
        ASSERT_EQ(ok, rok);
        std::vector<uint32_t> usedIds, rotatedIds;
        for (std::size_t i = 0; i < cols.size(); ++i) {
            if (uses[i]) {
                usedIds.push_back(cols[i]);
            }
            if (rotatedUses[i]) {
                rotatedIds.push_back(rotated[i]);
            }
        }
        std::sort(usedIds.begin(), usedIds.end());
        std::sort(rotatedIds.begin(), rotatedIds.end());
        EXPECT_EQ(usedIds, rotatedIds);
    }
}

TEST(OsdPostPass, AllZeroSyndromeAndInfeasibleRegion)
{
    sim::Dem dem = randomDem(55, 24, 60, 0.2);
    BpOsdDecoder dec(dem);
    std::vector<uint32_t> cols{0, 1, 2, 3, 4, 5};
    std::vector<double> post{0.5, 0.5, 0.5, -1.0, 2.0, 0.5}; // ties too
    std::vector<uint8_t> usesPacked, usesScalar;
    // All-zero syndrome: explainable by the empty solution.
    bool p0 = dec.osdPostPass(cols, post, {}, true, usesPacked);
    bool s0 = dec.osdPostPass(cols, post, {}, false, usesScalar);
    EXPECT_EQ(p0, s0);
    EXPECT_EQ(usesPacked, usesScalar);
    if (p0) {
        EXPECT_EQ(std::count(usesPacked.begin(), usesPacked.end(), 1), 0);
    }
    // A flipped detector nowhere adjacent to the region: infeasible for
    // both backends.
    std::vector<uint8_t> inRegion(dem.numDetectors, 0);
    for (uint32_t c : cols) {
        for (uint32_t d : dem.errors[c].detectors) {
            inRegion[d] = 1;
        }
    }
    uint32_t outside = UINT32_MAX;
    for (uint32_t d = 0; d < dem.numDetectors; ++d) {
        if (!inRegion[d]) {
            outside = d;
            break;
        }
    }
    ASSERT_NE(outside, UINT32_MAX);
    EXPECT_FALSE(
        dec.osdPostPass(cols, post, {outside}, true, usesPacked));
    EXPECT_FALSE(
        dec.osdPostPass(cols, post, {outside}, false, usesScalar));
    EXPECT_EQ(usesPacked, usesScalar);
}

TEST(OsdPostPass, DifferentialOnCircuitDems)
{
    // lp39 and rqt54 circuit DEMs: full decode with the packed vs scalar
    // elimination under OSD-forcing settings (tiny iteration budget at
    // benchmark noise) must be observable-identical on every path.
    struct Cfg
    {
        code::CssCode (*build)();
        std::size_t rounds;
        double p;
        std::size_t shots;
    };
    const Cfg cfgs[] = {{code::benchmarkLp39, 3, 4e-3, 200},
                        {code::benchmarkRqt54, 4, 2e-3, 80}};
    for (const Cfg &cfg : cfgs) {
        sim::Dem dem = circuitDem(cfg.build, cfg.rounds, cfg.p);
        sim::FrameBatch frames =
            sim::sampleDemFrames(dem, cfg.shots, 913);
        BpOsdOptions packedOpts;
        packedOpts.maxIterations = 3; // most shots reach OSD
        BpOsdOptions scalarOpts = packedOpts;
        scalarOpts.packedOsd = false;
        BpOsdDecoder packedDec(dem, packedOpts);
        BpOsdDecoder scalarDec(dem, scalarOpts);
        std::vector<uint64_t> packedPred(cfg.shots),
            scalarPred(cfg.shots);
        PackedDecodeStats packedStats, scalarStats;
        packedDec.decodePacked(frames.view(), packedPred.data(),
                               &packedStats);
        scalarDec.decodePacked(frames.view(), scalarPred.data(),
                               &scalarStats);
        EXPECT_EQ(packedPred, scalarPred);
        EXPECT_EQ(packedStats.osdShots, scalarStats.osdShots);
        EXPECT_GT(packedStats.osdShots, cfg.shots / 4)
            << "regime not OSD-heavy enough to test anything";
        // Per-shot decode() must agree with both.
        sim::SampleBatch rows;
        sim::transposeView(frames.view(), rows);
        std::vector<uint32_t> scratch;
        for (std::size_t s = 0; s < std::min<std::size_t>(cfg.shots, 40);
             ++s) {
            rows.flippedDetectors(s, scratch);
            EXPECT_EQ(packedDec.decode(scratch), packedPred[s]);
            EXPECT_EQ(scalarDec.decode(scratch), packedPred[s]);
        }
    }
}

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
 *  - Differential fuzz of BpOsdDecoder::osdSolve, the production OSD-0,
 *    against the scalar reference elimination (oracles::ScalarOsd) and
 *    through the full decode path, over random DEMs and the lp39/rqt54
 *    circuit DEMs: random posteriors, degenerate/tied posteriors (the
 *    pivot-order tie-break regression), all-zero and infeasible
 *    syndromes, and OSD-forcing decode settings. The packed elimination
 *    must match the scalar reference bit for bit.
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
#include "support/bp_osd_reference.h"

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

/** The mechanisms @p cols of @p dem, in that order, over all of its
 * detectors: a column subset as a DEM of its own. */
sim::Dem
subDem(const sim::Dem &dem, const std::vector<uint32_t> &cols)
{
    sim::Dem out;
    out.numDetectors = dem.numDetectors;
    out.numObservables = dem.numObservables;
    for (uint32_t c : cols) {
        out.errors.push_back(dem.errors[c]);
    }
    return out;
}

/** Run the production OSD-0 and the scalar reference on one input and
 * require identical outcomes; returns whether the syndrome was solved. */
bool
expectBackendsAgree(BpOsdDecoder &dec, oracles::ScalarOsd &scalar,
                    const sim::Dem &dem, const std::vector<double> &post,
                    const std::vector<uint32_t> &flipped)
{
    std::vector<uint32_t> packedSol, scalarSol;
    bool packedOk = dec.osdSolve(post, flipped, packedSol);
    bool scalarOk = scalar.solve(post, flipped, scalarSol);
    std::sort(packedSol.begin(), packedSol.end());
    EXPECT_EQ(packedOk, scalarOk);
    EXPECT_EQ(packedSol, scalarSol);
    if (!packedOk) {
        EXPECT_TRUE(packedSol.empty());
        return false;
    }
    // The solution must actually explain the syndrome: XOR of the used
    // columns' detector sets == the flipped set.
    std::vector<uint8_t> parity(dem.numDetectors, 0);
    for (uint32_t c : packedSol) {
        for (uint32_t d : dem.errors[c].detectors) {
            parity[d] ^= 1;
        }
    }
    std::vector<uint8_t> expected(dem.numDetectors, 0);
    for (uint32_t d : flipped) {
        expected[d] = 1;
    }
    EXPECT_EQ(parity, expected);
    return true;
}

/** A random syndrome: each detector of @p dem flipped with chance 1/3. */
std::vector<uint32_t>
randomSyndrome(const sim::Dem &dem, sim::Rng &rng)
{
    std::vector<uint32_t> flipped;
    for (uint32_t d = 0; d < dem.numDetectors; ++d) {
        if (rng.below(3) == 0) {
            flipped.push_back(d);
        }
    }
    return flipped;
}

/**
 * Posteriors for a 1280-column DEM whose strided sample (every 5th
 * column) has @p tau as its 8th smallest value: seven sampled columns
 * below it, @p ties columns (every 3rd from column 35 on, every 15th of
 * them sampled) exactly equal to it, the rest above it. @p value(c) gives the
 * tied value of column c, so ±0.0 can be mixed.
 */
template <class Tied>
std::vector<double>
postsTiedAtTau(std::size_t ne, std::size_t ties, sim::Rng &rng, Tied value)
{
    std::vector<double> post(ne);
    for (double &p : post) {
        p = 1.0 + rng.uniform() * 9.0;
    }
    for (std::size_t k = 0; k < 7; ++k) {
        post[5 * k] = -1.0 - (double)k;
    }
    for (std::size_t k = 0; k < ties; ++k) {
        std::size_t c = 35 + 3 * k;
        post[c] = value(c);
    }
    return post;
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
        sim::Dem full = randomDem(seed, 36, 110, 0.2);
        sim::Rng rng(seed * 17 + 5);
        for (int trial = 0; trial < 30; ++trial) {
            // Random region: a random subset of the columns, as a DEM.
            std::vector<uint32_t> cols;
            for (uint32_t c = 0; c < full.errors.size(); ++c) {
                if (rng.below(3) != 0) {
                    cols.push_back(c);
                }
            }
            if (cols.empty()) {
                continue;
            }
            sim::Dem dem = subDem(full, cols);
            BpOsdDecoder dec(dem);
            auto tanner = BpOsdDecoder::buildTanner(dem);
            oracles::ScalarOsd scalar(*tanner);
            // Random syndrome over the region's detectors (may still be
            // unexplainable — both backends must agree on that too).
            std::vector<uint8_t> inRegion(dem.numDetectors, 0);
            for (const sim::ErrorMechanism &mech : dem.errors) {
                for (uint32_t d : mech.detectors) {
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
            expectBackendsAgree(dec, scalar, dem, post, flipped);
        }
    }
}

TEST(OsdPostPass, TiedPosteriorsPickIdenticalPivotOrders)
{
    // Duplicated priors are the realistic source of exact posterior
    // ties; the tie-break by column id must make the packed and
    // reference eliminations pick the same pivots. Regression test for
    // the unstable posterior sort.
    sim::Dem dem = randomDem(77, 30, 90, 0.1, /*tied_priors=*/true);
    BpOsdDecoder dec(dem);
    auto tanner = BpOsdDecoder::buildTanner(dem);
    oracles::ScalarOsd scalar(*tanner);
    sim::Rng rng(123);
    for (int trial = 0; trial < 25; ++trial) {
        std::vector<uint32_t> flipped;
        for (uint32_t d = 0; d < dem.numDetectors; ++d) {
            if (rng.below(3) == 0) {
                flipped.push_back(d);
            }
        }
        // Heavily tied posteriors: only 3 distinct values.
        std::vector<double> post(dem.errors.size());
        for (double &p : post) {
            p = (double)rng.below(3) - 1.0;
        }
        expectBackendsAgree(dec, scalar, dem, post, flipped);
    }
}

TEST(OsdPostPass, AllZeroSyndromeAndInfeasibleRegion)
{
    // Six columns of a larger DEM: most detectors are touched by none
    // of them.
    sim::Dem dem = subDem(randomDem(55, 24, 60, 0.2), {0, 1, 2, 3, 4, 5});
    BpOsdDecoder dec(dem);
    auto tanner = BpOsdDecoder::buildTanner(dem);
    oracles::ScalarOsd scalar(*tanner);
    std::vector<double> post{0.5, 0.5, 0.5, -1.0, 2.0, 0.5}; // ties too
    // All-zero syndrome: explainable by the empty solution.
    std::vector<uint32_t> sol;
    if (expectBackendsAgree(dec, scalar, dem, post, {})) {
        dec.osdSolve(post, {}, sol);
        EXPECT_TRUE(sol.empty());
    }
    // A flipped detector no column touches: infeasible for both
    // backends.
    std::vector<uint8_t> touched(dem.numDetectors, 0);
    for (const sim::ErrorMechanism &mech : dem.errors) {
        for (uint32_t d : mech.detectors) {
            touched[d] = 1;
        }
    }
    uint32_t outside = UINT32_MAX;
    for (uint32_t d = 0; d < dem.numDetectors; ++d) {
        if (!touched[d]) {
            outside = d;
            break;
        }
    }
    ASSERT_NE(outside, UINT32_MAX);
    EXPECT_FALSE(expectBackendsAgree(dec, scalar, dem, post, {outside}));
}

TEST(OsdPostPass, DifferentialOnCircuitDems)
{
    // lp39 and rqt54 circuit DEMs under OSD-forcing settings (tiny
    // iteration budget; lp39 at 6e-3, since at 4e-3 the low-weight
    // stage leaves fewer than a quarter of the shots to BP and OSD):
    // the lane decode's OSD shots
    // are exactly the shots reference BP does not converge on, and on
    // each of them the production OSD-0 and the scalar reference return
    // the same solution, whose observables are the decoded prediction.
    struct Cfg
    {
        code::CssCode (*build)();
        std::size_t rounds;
        double p;
        std::size_t shots;
    };
    const Cfg cfgs[] = {{code::benchmarkLp39, 3, 6e-3, 200},
                        {code::benchmarkRqt54, 4, 2e-3, 80}};
    for (const Cfg &cfg : cfgs) {
        sim::Dem dem = circuitDem(cfg.build, cfg.rounds, cfg.p);
        sim::FrameBatch frames =
            sim::sampleDemFrames(dem, cfg.shots, 913);
        BpOsdOptions opts;
        opts.maxIterations = 3; // most shots reach OSD
        BpOsdDecoder dec(dem, opts);
        std::vector<uint64_t> pred(cfg.shots);
        PackedDecodeStats stats;
        dec.decodePacked(frames.view(), pred.data(), &stats);
        EXPECT_GT(stats.osdShots, cfg.shots / 4)
            << "regime not OSD-heavy enough to test anything";
        sim::SampleBatch rows;
        sim::transposeView(frames.view(), rows);
        auto tanner = BpOsdDecoder::buildTanner(dem);
        oracles::LowWeightReference low(*tanner);
        std::vector<oracles::OsdJob> jobs =
            oracles::referenceOsdJobs(*tanner, low, opts, rows);
        EXPECT_EQ(stats.osdShots, jobs.size());
        oracles::ScalarOsd scalar(*tanner);
        std::vector<uint32_t> sol;
        for (const oracles::OsdJob &job : jobs) {
            expectBackendsAgree(dec, scalar, dem, job.post, job.flipped);
            uint64_t obs = 0;
            if (scalar.solve(job.post, job.flipped, sol)) {
                for (uint32_t c : sol) {
                    obs ^= tanner->colObs[c];
                }
            }
            EXPECT_EQ(obs, pred[job.shot]) << "shot " << job.shot;
        }
        // Per-shot decode() and the reference decoder must agree too.
        std::vector<uint32_t> scratch;
        for (std::size_t s = 0; s < std::min<std::size_t>(cfg.shots, 40);
             ++s) {
            rows.flippedDetectors(s, scratch);
            EXPECT_EQ(dec.decode(scratch), pred[s]);
            EXPECT_EQ(oracles::decodeReference(*tanner, low, opts, scratch),
                      pred[s]);
        }
    }
}

// osdSolve ranks columns by first keeping those whose posterior is at
// most a threshold sampled from every (numCols / 256)-th column (the 8th
// smallest sample). The cases below pin that filter to the full
// (posterior, column id) order of the scalar reference: ties at the
// threshold, signed zeros, small DEMs where every column is sampled,
// a filter that keeps everything, and solves that outrun the filter.

TEST(OsdPostPass, ManyPosteriorsEqualToTheSampledThreshold)
{
    sim::Dem dem = randomDem(41, 60, 1280, 0.2);
    BpOsdDecoder dec(dem);
    auto tanner = BpOsdDecoder::buildTanner(dem);
    oracles::ScalarOsd scalar(*tanner);
    sim::Rng rng(411);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> post = postsTiedAtTau(
            dem.errors.size(), 120, rng, [](std::size_t) { return 0.5; });
        expectBackendsAgree(dec, scalar, dem, post, randomSyndrome(dem, rng));
    }
}

TEST(OsdPostPass, MixedSignedZeroPosteriors)
{
    // +0.0 and -0.0 compare equal, so they tie and rank by column id,
    // whichever of them the sampled threshold is.
    sim::Dem dem = randomDem(42, 60, 1280, 0.2);
    BpOsdDecoder dec(dem);
    auto tanner = BpOsdDecoder::buildTanner(dem);
    oracles::ScalarOsd scalar(*tanner);
    sim::Rng rng(421);
    for (int trial = 0; trial < 20; ++trial) {
        // Even trials: the sampled ties are -0.0, the others +0.0 (the
        // threshold is -0.0); odd trials the other way round.
        bool sampledNegative = trial % 2 == 0;
        std::vector<double> post = postsTiedAtTau(
            dem.errors.size(), 120, rng, [&](std::size_t c) {
                return (c % 5 == 0) == sampledNegative ? -0.0 : 0.0;
            });
        expectBackendsAgree(dec, scalar, dem, post, randomSyndrome(dem, rng));
    }
}

TEST(OsdPostPass, FewerColumnsThanTheSample)
{
    // 40 to 250 columns: the sample is every column.
    for (std::size_t ne : {40u, 97u, 250u}) {
        sim::Dem dem = randomDem(43 + ne, 30, ne, 0.2);
        BpOsdDecoder dec(dem);
        auto tanner = BpOsdDecoder::buildTanner(dem);
        oracles::ScalarOsd scalar(*tanner);
        sim::Rng rng(431 + ne);
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<double> post(ne);
            for (double &p : post) {
                // Every other trial draws from 4 values: ties.
                p = trial % 2 == 0 ? rng.uniform() * 10.0 - 5.0
                                   : (double)rng.below(4) - 1.0;
            }
            expectBackendsAgree(dec, scalar, dem, post,
                                randomSyndrome(dem, rng));
        }
    }
}

TEST(OsdPostPass, AllEqualPosteriors)
{
    // Every column ties with the threshold, so the filter keeps them
    // all; the ranking is column-id order.
    sim::Dem dem = randomDem(44, 60, 1280, 0.2);
    BpOsdDecoder dec(dem);
    auto tanner = BpOsdDecoder::buildTanner(dem);
    oracles::ScalarOsd scalar(*tanner);
    sim::Rng rng(441);
    for (double v : {0.0, -0.0, 2.5, -3.0}) {
        std::vector<double> post(dem.errors.size(), v);
        for (int trial = 0; trial < 5; ++trial) {
            expectBackendsAgree(dec, scalar, dem, post,
                                randomSyndrome(dem, rng));
        }
    }
}

TEST(OsdPostPass, SolveNeedsColumnsBeyondTheFilter)
{
    // The syndrome is one detector, and every column touching it has a
    // posterior above all other columns', so the filter (about 40 of
    // 1280 columns) cannot explain it: the elimination must rank the
    // columns the filter left out.
    sim::Dem dem = randomDem(45, 60, 1280, 0.2);
    BpOsdDecoder dec(dem);
    auto tanner = BpOsdDecoder::buildTanner(dem);
    oracles::ScalarOsd scalar(*tanner);
    sim::Rng rng(451);
    std::size_t checked = 0;
    for (uint32_t target = 0; target < dem.numDetectors; target += 7) {
        std::vector<double> post(dem.errors.size());
        std::size_t touching = 0;
        for (std::size_t c = 0; c < post.size(); ++c) {
            const auto &dets = dem.errors[c].detectors;
            bool hit = std::find(dets.begin(), dets.end(), target) !=
                       dets.end();
            touching += hit;
            post[c] = (hit ? 5.0 : 0.0) + rng.uniform() * 5.0;
        }
        if (touching == 0) {
            continue;
        }
        ASSERT_TRUE(expectBackendsAgree(dec, scalar, dem, post, {target}));
        ++checked;
    }
    EXPECT_GT(checked, 5u);
}

/**
 * @file
 * Tests for CSS code constructions: surface, group algebra, lifted product,
 * two-block, distance estimation, and the Table 1 benchmark suite.
 */
#include <gtest/gtest.h>

#include <random>

#include "code/codes.h"
#include "code/distance.h"
#include "code/group_algebra.h"
#include "code/lifted_product.h"
#include "code/surface.h"
#include "code/two_block.h"

using namespace prophunt::code;
using prophunt::gf2::BitVec;
using prophunt::gf2::Matrix;

TEST(CssCode, RejectsAnticommutingChecks)
{
    // Single-qubit overlap between an X and a Z check anticommutes.
    Matrix hx = Matrix::fromRows({{1, 1, 0}});
    Matrix hz = Matrix::fromRows({{1, 0, 1}});
    EXPECT_THROW(CssCode(hx, hz, "bad"), std::invalid_argument);
}

TEST(CssCode, PaperExampleD3)
{
    // The d=3 check matrices from the paper's Section 2.2.
    Matrix hx = Matrix::fromRows({{1, 1, 0, 1, 1, 0, 0, 0, 0},
                                  {0, 0, 0, 0, 1, 1, 0, 1, 1},
                                  {0, 0, 0, 1, 0, 0, 1, 0, 0},
                                  {0, 0, 1, 0, 0, 1, 0, 0, 0}});
    Matrix hz = Matrix::fromRows({{0, 1, 1, 0, 1, 1, 0, 0, 0},
                                  {0, 0, 0, 1, 1, 0, 1, 1, 0},
                                  {1, 1, 0, 0, 0, 0, 0, 0, 0},
                                  {0, 0, 0, 0, 0, 0, 0, 1, 1}});
    CssCode code(hx, hz, "paper d3");
    EXPECT_EQ(code.n(), 9u);
    EXPECT_EQ(code.k(), 1u);
    EXPECT_EQ(estimateDistance(code, 40, 5), 3u);
}

TEST(CssCode, LogicalsAnticommutePairwise)
{
    CssCode code = benchmarkLp39();
    for (std::size_t i = 0; i < code.k(); ++i) {
        for (std::size_t j = 0; j < code.k(); ++j) {
            EXPECT_EQ(code.lx().row(i).dot(code.lz().row(j)), i == j)
                << "pair " << i << "," << j;
        }
    }
}

TEST(CssCode, LogicalsCommuteWithChecks)
{
    CssCode code = benchmarkRqt60();
    for (std::size_t i = 0; i < code.k(); ++i) {
        for (std::size_t r = 0; r < code.hz().rows(); ++r) {
            EXPECT_FALSE(code.lx().row(i).dot(code.hz().row(r)));
        }
        for (std::size_t r = 0; r < code.hx().rows(); ++r) {
            EXPECT_FALSE(code.lz().row(i).dot(code.hx().row(r)));
        }
    }
}

class SurfaceCodeTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SurfaceCodeTest, Parameters)
{
    std::size_t d = GetParam();
    SurfaceCode s(d);
    EXPECT_EQ(s.code().n(), d * d);
    EXPECT_EQ(s.code().k(), 1u);
    EXPECT_EQ(s.code().numChecks(), d * d - 1);
    EXPECT_EQ(s.code().numXChecks(), (d * d - 1) / 2);
    EXPECT_EQ(estimateDistance(s.code(), 60, 17), d);
}

TEST_P(SurfaceCodeTest, FaceWeights)
{
    std::size_t d = GetParam();
    SurfaceCode s(d);
    std::size_t weight2 = 0, weight4 = 0;
    for (std::size_t c = 0; c < s.numFaces(); ++c) {
        std::size_t w = s.code().checkSupport(c).size();
        EXPECT_TRUE(w == 2 || w == 4);
        (w == 2 ? weight2 : weight4)++;
    }
    EXPECT_EQ(weight2, 2 * (d - 1)); // boundary faces
    EXPECT_EQ(weight4, (d - 1) * (d - 1));
}

INSTANTIATE_TEST_SUITE_P(Distances, SurfaceCodeTest,
                         ::testing::Values(3, 5, 7, 9));

TEST(SurfaceCode, RejectsEvenDistance)
{
    EXPECT_THROW(SurfaceCode(4), std::invalid_argument);
}

TEST(Group, CyclicAxioms)
{
    Group g = Group::cyclic(12);
    EXPECT_EQ(g.order(), 12u);
    for (std::size_t a = 0; a < 12; ++a) {
        EXPECT_EQ(g.mul(a, g.inverse(a)), 0u);
        EXPECT_EQ(g.mul(0, a), a);
        for (std::size_t b = 0; b < 12; ++b) {
            for (std::size_t c = 0; c < 12; ++c) {
                EXPECT_EQ(g.mul(g.mul(a, b), c), g.mul(a, g.mul(b, c)));
            }
        }
    }
}

TEST(Group, DihedralAxioms)
{
    Group g = Group::dihedral(5);
    EXPECT_EQ(g.order(), 10u);
    for (std::size_t a = 0; a < 10; ++a) {
        EXPECT_EQ(g.mul(a, g.inverse(a)), 0u);
        for (std::size_t b = 0; b < 10; ++b) {
            for (std::size_t c = 0; c < 10; ++c) {
                EXPECT_EQ(g.mul(g.mul(a, b), c), g.mul(a, g.mul(b, c)));
            }
        }
    }
    // Non-abelian: some pair fails to commute.
    bool noncommutative = false;
    for (std::size_t a = 0; a < 10 && !noncommutative; ++a) {
        for (std::size_t b = 0; b < 10; ++b) {
            if (g.mul(a, b) != g.mul(b, a)) {
                noncommutative = true;
                break;
            }
        }
    }
    EXPECT_TRUE(noncommutative);
}

TEST(GroupAlgebra, LeftRightRepresentationsCommute)
{
    Group g = Group::dihedral(4);
    std::mt19937_64 rng(3);
    for (int trial = 0; trial < 10; ++trial) {
        AlgebraElement a = AlgebraElement::fromTerms(
            g, {rng() % g.order(), rng() % g.order()});
        AlgebraElement b = AlgebraElement::fromTerms(
            g, {rng() % g.order(), rng() % g.order()});
        Matrix la = a.liftLeft(g);
        Matrix rb = b.liftRight(g);
        EXPECT_EQ(la.mul(rb), rb.mul(la));
    }
}

TEST(GroupAlgebra, AntipodeTransposesLift)
{
    Group g = Group::dihedral(6);
    AlgebraElement a = AlgebraElement::fromTerms(g, {1, 7, 10});
    EXPECT_EQ(a.liftLeft(g).transpose(), a.antipode(g).liftLeft(g));
    EXPECT_EQ(a.liftRight(g).transpose(), a.antipode(g).liftRight(g));
}

class LiftedProductProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(LiftedProductProperty, RandomInstancesAreValidCss)
{
    std::mt19937_64 rng(GetParam() * 7919 + 1);
    bool dihedral = rng() & 1;
    Group g = dihedral ? Group::dihedral(2 + rng() % 4)
                       : Group::cyclic(2 + rng() % 7);
    std::size_t ma = 1 + rng() % 2, na = 2 + rng() % 2;
    std::size_t mb = 1 + rng() % 2, nb = 2 + rng() % 2;
    Protograph a(g, ma, na), b(g, mb, nb);
    for (std::size_t r = 0; r < ma; ++r) {
        for (std::size_t c = 0; c < na; ++c) {
            a.at(r, c) = AlgebraElement::fromTerms(g, {rng() % g.order()});
        }
    }
    for (std::size_t r = 0; r < mb; ++r) {
        for (std::size_t c = 0; c < nb; ++c) {
            b.at(r, c) = AlgebraElement::fromTerms(g, {rng() % g.order()});
        }
    }
    // Construction throws if H_X H_Z^T != 0; success is the assertion.
    CssCode code = liftedProduct(g, a, b, "prop");
    EXPECT_EQ(code.n(), g.order() * (na * nb + ma * mb));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, LiftedProductProperty,
                         ::testing::Range(0, 20));

class TwoBlockProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(TwoBlockProperty, RandomInstancesAreValidCss)
{
    std::mt19937_64 rng(GetParam() * 104729 + 5);
    bool dihedral = rng() & 1;
    Group g = dihedral ? Group::dihedral(3 + rng() % 6)
                       : Group::cyclic(4 + rng() % 12);
    std::vector<std::size_t> ta{0}, tb{0};
    while (ta.size() < 3) {
        ta.push_back(rng() % g.order());
    }
    while (tb.size() < 3) {
        tb.push_back(rng() % g.order());
    }
    CssCode code = twoBlock(g, AlgebraElement::fromTerms(g, ta),
                            AlgebraElement::fromTerms(g, tb), "prop");
    EXPECT_EQ(code.n(), 2 * g.order());
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, TwoBlockProperty,
                         ::testing::Range(0, 20));

TEST(BenchmarkCodes, Table1Parameters)
{
    auto codes = allBenchmarkCodes();
    ASSERT_EQ(codes.size(), 8u);
    struct Expected
    {
        std::size_t n, k, d;
    };
    // The two large RQT stand-ins realize k=12: they are two-block codes
    // matched to the paper's RQT instances in n, weight, and distance, and
    // k=12 is the closest the two-block search found.
    std::vector<Expected> expected = {{9, 1, 3},   {25, 1, 5}, {49, 1, 7},
                                      {81, 1, 9},  {39, 3, 3}, {60, 2, 6},
                                      {54, 12, 4}, {108, 12, 4}};
    for (std::size_t i = 0; i < codes.size(); ++i) {
        EXPECT_EQ(codes[i].n(), expected[i].n) << codes[i].name();
        EXPECT_EQ(codes[i].k(), expected[i].k) << codes[i].name();
        EXPECT_EQ(estimateDistance(codes[i], 50, 23), expected[i].d)
            << codes[i].name();
    }
}

TEST(Distance, RepetitionLikeLowerBound)
{
    // Steane code [[7,1,3]].
    Matrix h = Matrix::fromRows({{1, 0, 1, 0, 1, 0, 1},
                                 {0, 1, 1, 0, 0, 1, 1},
                                 {0, 0, 0, 1, 1, 1, 1}});
    CssCode steane(h, h, "steane");
    EXPECT_EQ(steane.k(), 1u);
    EXPECT_EQ(estimateDistance(steane, 40, 3), 3u);
}

/**
 * @file
 * Cross-module property tests: invariants that must hold for every
 * benchmark code, both memory bases, and randomized schedule mutations.
 */
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <set>

#include "circuit/coloration.h"
#include "circuit/sm_circuit.h"
#include "code/codes.h"
#include "decoder/matching_graph.h"
#include "decoder/union_find.h"
#include "prophunt/subgraph.h"
#include "sim/dem_builder.h"
#include "support/sampling.h"

using namespace prophunt;

namespace {

std::shared_ptr<const code::CssCode>
benchCode(std::size_t idx)
{
    static std::vector<code::CssCode> codes = code::allBenchmarkCodes();
    return std::make_shared<const code::CssCode>(codes[idx]);
}

} // namespace

/** Sweep over all Table 1 codes x both memory bases. */
class DemInvariants
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(DemInvariants, NoWeightOneLogicalAndSortedSignatures)
{
    auto [idx, basis_i] = GetParam();
    auto cp = benchCode(idx);
    auto basis = basis_i == 0 ? circuit::MemoryBasis::Z
                              : circuit::MemoryBasis::X;
    // Two rounds keeps the largest codes quick while still exercising
    // round-boundary detectors.
    auto circ = circuit::buildMemoryCircuit(
        circuit::colorationSchedule(cp), 2, basis);
    sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(1e-3));
    ASSERT_GT(dem.errors.size(), 0u);
    for (const auto &mech : dem.errors) {
        // No undetected single fault may flip an observable (d_eff >= 2
        // for every valid CSS code and schedule).
        EXPECT_FALSE(mech.detectors.empty() && !mech.observables.empty())
            << cp->name();
        for (std::size_t i = 1; i < mech.detectors.size(); ++i) {
            EXPECT_LT(mech.detectors[i - 1], mech.detectors[i]);
        }
        EXPECT_GT(mech.p, 0.0);
    }
}

TEST_P(DemInvariants, DetectorCountMatchesCircuit)
{
    auto [idx, basis_i] = GetParam();
    auto cp = benchCode(idx);
    auto basis = basis_i == 0 ? circuit::MemoryBasis::Z
                              : circuit::MemoryBasis::X;
    auto circ = circuit::buildMemoryCircuit(
        circuit::colorationSchedule(cp), 2, basis);
    sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(1e-3));
    EXPECT_EQ(dem.numDetectors, circ.detectors.size());
    EXPECT_EQ(dem.numObservables, cp->k());
    // Every detector index referenced must be in range.
    for (const auto &mech : dem.errors) {
        for (uint32_t d : mech.detectors) {
            EXPECT_LT(d, dem.numDetectors);
        }
        for (uint32_t o : mech.observables) {
            EXPECT_LT(o, dem.numObservables);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, DemInvariants,
    ::testing::Combine(::testing::Range<std::size_t>(0, 8),
                       ::testing::Values(0, 1)));

/** Random valid rescheduling mutations preserve CNOT multiset. */
class ScheduleMutation : public ::testing::TestWithParam<int>
{
};

TEST_P(ScheduleMutation, RandomSwapsPreserveStructure)
{
    std::mt19937_64 rng(GetParam() * 7 + 1);
    auto cp = benchCode(GetParam() % 8);
    circuit::SmSchedule s = circuit::colorationSchedule(cp);
    for (int step = 0; step < 10; ++step) {
        std::size_t q = rng() % cp->n();
        if (s.qubitOrder(q).size() < 2) {
            continue;
        }
        std::size_t i = rng() % s.qubitOrder(q).size();
        std::size_t j = rng() % s.qubitOrder(q).size();
        if (i == j) {
            continue;
        }
        circuit::SmSchedule t = s.withRelativeSwap(
            q, s.qubitOrder(q)[i], s.qubitOrder(q)[j]);
        // Per-check orders unchanged by rescheduling.
        for (std::size_t c = 0; c < cp->numChecks(); ++c) {
            EXPECT_EQ(t.checkOrder(c), s.checkOrder(c));
        }
        // Qubit membership preserved.
        std::multiset<std::size_t> before(s.qubitOrder(q).begin(),
                                          s.qubitOrder(q).end());
        std::multiset<std::size_t> after(t.qubitOrder(q).begin(),
                                         t.qubitOrder(q).end());
        EXPECT_EQ(before, after);
        if (t.schedulable()) {
            s = t; // keep walking through valid schedule space
        }
    }
}

TEST_P(ScheduleMutation, ReorderKeepsCommutationValidity)
{
    // Reordering changes the within-check order only; crossing parity
    // between X and Z checks depends only on per-qubit orders, so
    // commutation validity must be invariant under any reorder.
    std::mt19937_64 rng(GetParam() * 13 + 3);
    auto cp = benchCode(GetParam() % 8);
    circuit::SmSchedule s = circuit::colorationSchedule(cp);
    ASSERT_TRUE(s.commutationValid());
    for (int step = 0; step < 10; ++step) {
        std::size_t c = rng() % cp->numChecks();
        std::size_t w = s.checkOrder(c).size();
        if (w < 2) {
            continue;
        }
        std::size_t i = rng() % w, j = rng() % w;
        if (i == j) {
            continue;
        }
        s = s.withReorder(c, i, j);
        EXPECT_TRUE(s.commutationValid());
    }
}

INSTANTIATE_TEST_SUITE_P(RandomWalks, ScheduleMutation,
                         ::testing::Range(0, 16));

/** Sampler statistics per code: detector rates track the DEM. */
class SamplerSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SamplerSweep, PerDetectorRatesMatchFirstOrder)
{
    auto cp = benchCode(GetParam());
    auto circ = circuit::buildMemoryCircuit(
        circuit::colorationSchedule(cp), 2, circuit::MemoryBasis::Z);
    sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(5e-3));
    std::size_t shots = 30000;
    sim::SampleBatch batch = oracles::sampleDem(dem, shots, GetParam() * 101);
    // Expected per-detector flip rate, first order in p.
    std::vector<double> expected(dem.numDetectors, 0.0);
    for (const auto &mech : dem.errors) {
        for (uint32_t d : mech.detectors) {
            expected[d] += mech.p;
        }
    }
    std::vector<std::size_t> fired(dem.numDetectors, 0);
    for (std::size_t s = 0; s < shots; ++s) {
        for (uint32_t d : batch.flippedDetectors(s)) {
            ++fired[d];
        }
    }
    std::size_t gross_mismatches = 0;
    for (std::size_t d = 0; d < dem.numDetectors; ++d) {
        double rate = (double)fired[d] / shots;
        if (std::abs(rate - expected[d]) >
            0.35 * expected[d] + 6.0 / shots) {
            ++gross_mismatches;
        }
    }
    EXPECT_LE(gross_mismatches, dem.numDetectors / 20)
        << cp->name();
}

INSTANTIATE_TEST_SUITE_P(AllCodes, SamplerSweep,
                         ::testing::Range<std::size_t>(0, 8));

/** Union-find decodes every two-mechanism syndrome without crashing and
 * with bounded inaccuracy relative to independent single decodes. */
class UnionFindFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(UnionFindFuzz, PairwiseSyndromesNeverCrash)
{
    auto cp = benchCode(GetParam() % 4); // surface codes
    auto circ = circuit::buildMemoryCircuit(
        circuit::colorationSchedule(cp), 2, circuit::MemoryBasis::Z);
    sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(1e-3));
    decoder::UnionFindDecoder uf(decoder::buildMatchingGraph(dem, circ));
    std::mt19937_64 rng(GetParam() * 4241 + 11);
    for (int trial = 0; trial < 200; ++trial) {
        const auto &a = dem.errors[rng() % dem.errors.size()];
        const auto &b = dem.errors[rng() % dem.errors.size()];
        std::vector<uint32_t> dets;
        std::set<uint32_t> sym;
        for (uint32_t d : a.detectors) {
            if (!sym.insert(d).second) {
                sym.erase(d);
            }
        }
        for (uint32_t d : b.detectors) {
            auto it = sym.find(d);
            if (it != sym.end()) {
                sym.erase(it);
            } else {
                sym.insert(d);
            }
        }
        dets.assign(sym.begin(), sym.end());
        // Must return without crashing; correctness is statistical.
        (void)uf.decode(dets);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionFindFuzz, ::testing::Range(0, 6));

/** Subgraph sampling over every code never escapes the DEM bounds. */
class SubgraphSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SubgraphSweep, SamplesAreWellFormed)
{
    auto cp = benchCode(GetParam());
    auto circ = circuit::buildMemoryCircuit(
        circuit::colorationSchedule(cp), 2, circuit::MemoryBasis::Z);
    sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(1e-3));
    core::SubgraphFinder finder(dem);
    sim::Rng rng(GetParam() + 1);
    for (int trial = 0; trial < 15; ++trial) {
        core::Subgraph sg = finder.sample(rng, 24);
        EXPECT_FALSE(sg.detectors.empty());
        EXPECT_FALSE(sg.errors.empty());
        EXPECT_LE(sg.errors.size(), 24u + dem.errors.size() / 10);
        for (uint32_t d : sg.detectors) {
            EXPECT_LT(d, dem.numDetectors);
        }
        // Flag matches the definition.
        EXPECT_EQ(sg.ambiguous,
                  core::hasAmbiguity(dem, sg.detectors, sg.errors));
    }
}

INSTANTIATE_TEST_SUITE_P(AllCodes, SubgraphSweep,
                         ::testing::Range<std::size_t>(0, 8));

TEST(FailureInjection, UnknownDetectorIndexInUfIsSafe)
{
    auto cp = benchCode(0);
    auto circ = circuit::buildMemoryCircuit(
        circuit::colorationSchedule(cp), 2, circuit::MemoryBasis::Z);
    sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(1e-3));
    decoder::UnionFindDecoder uf(decoder::buildMatchingGraph(dem, circ));
    // All valid detectors flipped at once: pathological but must return.
    std::vector<uint32_t> all;
    for (uint32_t d = 0; d < dem.numDetectors; ++d) {
        all.push_back(d);
    }
    (void)uf.decode(all);
}

TEST(FailureInjection, SamplerRejectsCertainErrors)
{
    sim::Dem dem;
    dem.numDetectors = 1;
    dem.numObservables = 0;
    sim::ErrorMechanism m;
    m.p = 1.0;
    m.detectors = {0};
    dem.errors.push_back(m);
    EXPECT_THROW(oracles::sampleDem(dem, 10, 1), std::invalid_argument);
}

/**
 * @file
 * Tests for the stabilizer tableau simulator — and the exact
 * cross-validation between the tableau simulator and the Pauli-frame DEM
 * builder, the strongest correctness check in the suite: every single
 * fault's detector/observable footprint must agree between the two
 * completely independent implementations.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "sim/dem_builder.h"
#include "support/tableau.h"

using namespace prophunt;
using namespace prophunt::sim;
using namespace prophunt::oracles;

TEST(Tableau, BasicMeasurements)
{
    Rng rng(1);
    Tableau t(2);
    // |00>: deterministic Z measurements.
    EXPECT_FALSE(t.measureZ(0, rng));
    EXPECT_FALSE(t.measureZ(1, rng));
    // X|0> = |1>.
    t.applyX(0);
    EXPECT_TRUE(t.measureZ(0, rng));
    // Z on |1> leaves it.
    t.applyZ(0);
    EXPECT_TRUE(t.measureZ(0, rng));
}

TEST(Tableau, PlusStateIsXEigenstate)
{
    Rng rng(2);
    Tableau t(1);
    t.applyH(0);
    EXPECT_FALSE(t.measureX(0, rng));
    t.applyZ(0); // |+> -> |->
    EXPECT_TRUE(t.measureX(0, rng));
}

TEST(Tableau, BellPairCorrelations)
{
    for (uint64_t seed = 0; seed < 16; ++seed) {
        Rng rng(seed);
        Tableau t(2);
        t.applyH(0);
        t.applyCnot(0, 1);
        bool a = t.measureZ(0, rng);
        bool b = t.measureZ(1, rng);
        EXPECT_EQ(a, b) << "Bell pair Z outcomes must agree";
    }
}

TEST(Tableau, MeasurementCollapsePersists)
{
    Rng rng(5);
    Tableau t(1);
    t.applyH(0);
    bool first = t.measureZ(0, rng);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(t.measureZ(0, rng), first);
    }
}

TEST(Tableau, ResetForcesZero)
{
    for (uint64_t seed = 0; seed < 8; ++seed) {
        Rng rng(seed);
        Tableau t(1);
        t.applyH(0);
        t.resetZ(0, rng);
        EXPECT_FALSE(t.measureZ(0, rng));
    }
}

TEST(Tableau, YEqualsXZUpToPhase)
{
    Rng rng(7);
    Tableau a(1), b(1);
    a.applyY(0);
    b.applyX(0);
    b.applyZ(0);
    EXPECT_EQ(a.measureZ(0, rng), true);
    EXPECT_EQ(b.measureZ(0, rng), true);
}

TEST(TableauCircuit, NoiselessDetectorsAreDeterministicallyZero)
{
    // The strongest structural check of the circuit builder: in a
    // noiseless run every detector and every observable must be zero,
    // for every benchmark code and both memory bases.
    for (const code::CssCode &c : code::allBenchmarkCodes()) {
        if (c.n() > 60) {
            continue; // keep the sweep fast; larger codes covered below
        }
        auto cp = std::make_shared<const code::CssCode>(c);
        for (auto basis :
             {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
            auto circ = circuit::buildMemoryCircuit(
                circuit::colorationSchedule(cp), 2, basis);
            Rng rng(99);
            auto meas = runTableau(circ, rng);
            ASSERT_EQ(meas.size(), circ.numMeasurements);
            for (uint8_t d : detectorValues(circ, meas)) {
                ASSERT_EQ(d, 0) << c.name();
            }
            for (uint8_t o : observableValues(circ, meas)) {
                ASSERT_EQ(o, 0) << c.name();
            }
        }
    }
}

TEST(TableauCircuit, NoiselessNzScheduleAllDistances)
{
    for (std::size_t d : {3, 5}) {
        code::SurfaceCode s(d);
        auto circ = circuit::buildMemoryCircuit(circuit::nzSchedule(s), d,
                                                circuit::MemoryBasis::Z);
        Rng rng(3);
        auto meas = runTableau(circ, rng);
        for (uint8_t det : detectorValues(circ, meas)) {
            ASSERT_EQ(det, 0);
        }
    }
}

namespace {

/**
 * Cross-validate: for every fault location of the uniform noise model —
 * X, Y, Z at each reset and measurement, the 15 Pauli pairs after each
 * CNOT — the tableau simulator's detector/observable flips (faulty run vs
 * noiseless run with identical measurement randomness) must equal the
 * DEM's signature for the mechanism containing that fault, and a location
 * in no mechanism must flip nothing. Locations are enumerated here, not
 * read from the DEM, so a builder that dropped a detectable fault fails.
 * At most @p cap locations are checked, drawn uniformly at random; the
 * default covers every location of the d=3 surface circuits.
 */
void
crossValidate(const circuit::SmCircuit &circ, uint64_t seed,
              std::size_t cap = 4000)
{
    Dem dem = buildDem(circ, NoiseModel::uniform(1e-3));
    // Index mechanisms by fault location.
    std::map<std::tuple<std::size_t, int, int>, std::size_t> by_loc;
    for (std::size_t e = 0; e < dem.errors.size(); ++e) {
        for (const FaultLoc &loc : dem.errors[e].sources) {
            by_loc[{loc.instr, (int)loc.p0, (int)loc.p1}] = e;
        }
    }

    std::vector<FaultLoc> locs;
    for (std::size_t i = 0; i < circ.instructions.size(); ++i) {
        FaultLoc loc;
        loc.instr = i;
        switch (circ.instructions[i].op) {
        case circuit::OpType::Cnot:
            for (int a = 0; a < 4; ++a) {
                for (int b = 0; b < 4; ++b) {
                    if (a != 0 || b != 0) {
                        loc.p0 = (Pauli)a;
                        loc.p1 = (Pauli)b;
                        locs.push_back(loc);
                    }
                }
            }
            break;
        case circuit::OpType::Tick:
            break;
        default: // resets and measurements
            for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
                loc.p0 = p;
                locs.push_back(loc);
            }
        }
    }
    // Partial Fisher-Yates: the first min(cap, size) entries become a
    // uniform sample, present and absent locations alike.
    Rng pick(seed ^ 0x5eed);
    std::size_t sample = std::min(cap, locs.size());
    for (std::size_t k = 0; k < sample; ++k) {
        std::swap(locs[k], locs[k + pick.below(locs.size() - k)]);
    }

    Rng ref_rng(seed);
    auto ref = runTableau(circ, ref_rng);
    auto ref_det = detectorValues(circ, ref);
    auto ref_obs = observableValues(circ, ref);

    std::size_t present = 0, absent = 0;
    for (std::size_t k = 0; k < sample; ++k) {
        const FaultLoc &loc = locs[k];
        Rng rng(seed); // identical randomness as the reference run
        auto meas = runTableau(circ, rng, &loc);
        auto det = detectorValues(circ, meas);
        auto obs = observableValues(circ, meas);

        std::vector<uint32_t> flipped_det, flipped_obs;
        for (std::size_t i = 0; i < det.size(); ++i) {
            if (det[i] != ref_det[i]) {
                flipped_det.push_back((uint32_t)i);
            }
        }
        for (std::size_t i = 0; i < obs.size(); ++i) {
            if (obs[i] != ref_obs[i]) {
                flipped_obs.push_back((uint32_t)i);
            }
        }
        auto it = by_loc.find({loc.instr, (int)loc.p0, (int)loc.p1});
        if (it == by_loc.end()) {
            ASSERT_TRUE(flipped_det.empty() && flipped_obs.empty())
                << "detectable fault missing from the DEM: instr "
                << loc.instr << " p0 " << (int)loc.p0 << " p1 "
                << (int)loc.p1;
            ++absent;
            continue;
        }
        ASSERT_EQ(flipped_det, dem.errors[it->second].detectors)
            << "instr " << loc.instr;
        ASSERT_EQ(flipped_obs, dem.errors[it->second].observables)
            << "instr " << loc.instr;
        ++present;
    }
    ASSERT_GT(present, 100u);
    ASSERT_GT(absent, 0u);
    if (sample == locs.size()) {
        ASSERT_EQ(present, by_loc.size()); // every DEM source was checked
    }
}

} // namespace

TEST(TableauCrossValidation, SurfaceD3ColorationMemoryZ)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    crossValidate(circuit::buildMemoryCircuit(
                      circuit::colorationSchedule(cp), 3,
                      circuit::MemoryBasis::Z),
                  11);
}

TEST(TableauCrossValidation, SurfaceD3NzMemoryX)
{
    code::SurfaceCode s(3);
    crossValidate(circuit::buildMemoryCircuit(circuit::nzSchedule(s), 2,
                                              circuit::MemoryBasis::X),
                  13);
}

TEST(TableauCrossValidation, Lp39MemoryZ)
{
    auto cp =
        std::make_shared<const code::CssCode>(code::benchmarkLp39());
    crossValidate(circuit::buildMemoryCircuit(
                      circuit::randomColorationSchedule(cp, 3), 2,
                      circuit::MemoryBasis::Z),
                  17, 600);
}

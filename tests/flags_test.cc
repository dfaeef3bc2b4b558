/**
 * @file
 * Tests for the flag fault-tolerance extension (buildMemoryCircuit with a
 * nonzero flag weight): structure, noiseless determinism (via the tableau
 * simulator), and hook detection.
 */
#include <gtest/gtest.h>

#include <memory>

#include "circuit/coloration.h"
#include "circuit/sm_circuit.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "prophunt/optimizer.h"
#include "sim/dem_builder.h"
#include "support/tableau.h"

using namespace prophunt;
using namespace prophunt::circuit;

TEST(Flags, StructureCounts)
{
    code::SurfaceCode s(3);
    SmCircuit c =
        buildMemoryCircuit(circuit::nzSchedule(s), 2, MemoryBasis::Z, 4);
    // d=3 surface: 4 weight-4 faces of each type get flags; 4 weight-2
    // boundary faces do not.
    std::size_t m = s.code().numChecks();
    std::size_t f = 4; // interior faces (weight 4): (d-1)^2 = 4
    EXPECT_EQ(c.numQubits, s.code().n() + m + f);
    EXPECT_EQ(c.numMeasurements, 2 * (m + f) + s.code().n());
    // Two flag couplings per flagged check per round.
    SmCircuit plain =
        buildMemoryCircuit(circuit::nzSchedule(s), 2, MemoryBasis::Z);
    EXPECT_EQ(c.countCnots(), plain.countCnots() + 2 * f * 2);
    // Flag detectors exist: one per flag per round.
    EXPECT_EQ(c.detectors.size(), plain.detectors.size() + 2 * f);
}

TEST(Flags, WeightAboveEveryCheckAddsOnlyEmptyGaps)
{
    // A nonzero flag weight that no check reaches flags nothing: the
    // circuit is the plain one plus an empty Tick gap after every CNOT
    // layer, and since idle noise acts per CNOT layer the DEM keeps the
    // plain mechanisms and probabilities (only source instructions move).
    code::SurfaceCode s(3);
    SmSchedule sched = circuit::poorSurfaceSchedule(s);
    SmCircuit plain = buildMemoryCircuit(sched, 3, MemoryBasis::X);
    SmCircuit gapped = buildMemoryCircuit(sched, 3, MemoryBasis::X, 100);
    EXPECT_EQ(gapped.numQubits, plain.numQubits);
    EXPECT_EQ(gapped.numMeasurements, plain.numMeasurements);
    EXPECT_EQ(gapped.detectors, plain.detectors);
    EXPECT_EQ(gapped.detectorSource, plain.detectorSource);
    EXPECT_EQ(gapped.observables, plain.observables);
    std::size_t extra_ticks = 0, j = 0;
    for (const Instruction &ins : gapped.instructions) {
        if (j < plain.instructions.size() &&
            ins.op == plain.instructions[j].op &&
            ins.qubits == plain.instructions[j].qubits) {
            ++j;
        } else {
            EXPECT_EQ(ins.op, OpType::Tick);
            ++extra_ticks;
        }
    }
    EXPECT_EQ(j, plain.instructions.size());
    EXPECT_EQ(extra_ticks, 3 * sched.depth());
    for (double p_idle : {0.0, 1e-4}) {
        auto noise = sim::NoiseModel::withIdle(1e-3, p_idle);
        sim::Dem a = sim::buildDem(plain, noise);
        sim::Dem b = sim::buildDem(gapped, noise);
        ASSERT_EQ(a.errors.size(), b.errors.size());
        for (std::size_t i = 0; i < a.errors.size(); ++i) {
            EXPECT_EQ(a.errors[i].detectors, b.errors[i].detectors);
            EXPECT_EQ(a.errors[i].observables, b.errors[i].observables);
            EXPECT_EQ(a.errors[i].p, b.errors[i].p);
        }
    }
}

TEST(Flags, CouplingsCarryTheirRound)
{
    // Every CNOT, flag couplings included, reports the SM round it sits
    // in: the number of ancilla-measurement layers before it.
    code::SurfaceCode s(3);
    const std::size_t rounds = 3;
    SmCircuit c = buildMemoryCircuit(circuit::poorSurfaceSchedule(s),
                                     rounds, MemoryBasis::Z, 4);
    std::size_t round = 0, flag_cnots = 0;
    bool in_measure_layer = false;
    for (std::size_t i = 0; i < c.instructions.size(); ++i) {
        const Instruction &ins = c.instructions[i];
        bool ancilla_measure =
            (ins.op == OpType::MeasureZ || ins.op == OpType::MeasureX) &&
            ins.qubits[0] >= c.numData;
        if (ancilla_measure) {
            in_measure_layer = true;
            continue;
        }
        if (in_measure_layer) {
            ++round;
            in_measure_layer = false;
        }
        if (ins.op != OpType::Cnot) {
            continue;
        }
        EXPECT_EQ(c.cnotInfo[i].round, round) << "instruction " << i;
        flag_cnots += c.cnotInfo[i].flag;
    }
    EXPECT_EQ(round, rounds);
    // Two couplings per flagged check (4 weight-4 faces) per round.
    EXPECT_EQ(flag_cnots, 2 * 4 * rounds);
}

TEST(Flags, NoiselessDeterminism)
{
    // The strongest check: with flags inserted, every detector (including
    // all flag detectors) must still be deterministically zero.
    code::SurfaceCode s(3);
    for (auto basis : {MemoryBasis::Z, MemoryBasis::X}) {
        SmCircuit c =
            buildMemoryCircuit(circuit::nzSchedule(s), 3, basis, 4);
        sim::Rng rng(17);
        auto meas = oracles::runTableau(c, rng);
        for (uint8_t d : oracles::detectorValues(c, meas)) {
            ASSERT_EQ(d, 0);
        }
        for (uint8_t o : oracles::observableValues(c, meas)) {
            ASSERT_EQ(o, 0);
        }
    }
}

TEST(Flags, NoiselessDeterminismLdpc)
{
    auto cp =
        std::make_shared<const code::CssCode>(code::benchmarkLp39());
    SmCircuit c = buildMemoryCircuit(
        circuit::colorationSchedule(cp), 2, MemoryBasis::Z, 4);
    sim::Rng rng(23);
    auto meas = oracles::runTableau(c, rng);
    for (uint8_t d : oracles::detectorValues(c, meas)) {
        ASSERT_EQ(d, 0);
    }
}

TEST(Flags, MidSequenceHooksFlipTheFlag)
{
    // Inject an ancilla fault between the two flag couplings of a
    // weight-4 check and confirm a flag detector fires.
    code::SurfaceCode s(3);
    SmCircuit c = buildMemoryCircuit(
        circuit::poorSurfaceSchedule(s), 2, MemoryBasis::Z, 4);
    sim::Dem dem = sim::buildDem(c, sim::NoiseModel::uniform(1e-3));
    // Flag detectors are those whose source check index >= numChecks.
    std::size_t m = s.code().numChecks();
    std::size_t hooks_flagging = 0, hooks_total = 0;
    for (const auto &mech : dem.errors) {
        bool is_mid_hook = false;
        for (const auto &loc : mech.sources) {
            if (!loc.isCnot || loc.cnot.flag) {
                continue;
            }
            bool cx = s.code().isXCheck(loc.cnot.check);
            std::size_t w =
                s.code().checkSupport(loc.cnot.check).size();
            if (w < 4) {
                continue;
            }
            // Mid-sequence ancilla component (positions 1..w-2).
            bool anc_pauli =
                cx ? (loc.p0 == sim::Pauli::X || loc.p0 == sim::Pauli::Y)
                   : (loc.p1 == sim::Pauli::Z || loc.p1 == sim::Pauli::Y);
            if (anc_pauli && loc.cnot.posInCheck >= 1 &&
                loc.cnot.posInCheck + 2 <= w) {
                is_mid_hook = true;
            }
        }
        if (!is_mid_hook) {
            continue;
        }
        ++hooks_total;
        for (uint32_t d : mech.detectors) {
            if (c.detectorSource[d].first >= m) {
                ++hooks_flagging;
                break;
            }
        }
    }
    ASSERT_GT(hooks_total, 0u);
    // The great majority of mid-sequence hooks must raise a flag.
    EXPECT_GE(hooks_flagging * 10, hooks_total * 8);
}

TEST(Flags, FlagsRestoreEffectiveDistanceInDecoding)
{
    // The poor d=3 schedule has circuit-level d_eff = 2. With flags, the
    // distance-reducing hooks become flagged (extra detectors), so the
    // weight-2 undetected logical errors disappear: the min undetected
    // logical error weight must rise back to 3.
    code::SurfaceCode s(3);
    SmCircuit flagged = buildMemoryCircuit(
        circuit::poorSurfaceSchedule(s), 3, MemoryBasis::Z, 4);
    sim::Dem dem = sim::buildDem(flagged, sim::NoiseModel::uniform(1e-3));
    core::MinWeightResult mw = core::solveGlobalMinWeight(dem, 6, 120.0);
    ASSERT_TRUE(mw.found);
    EXPECT_GE(mw.weight, 3u);
}

/**
 * @file
 * Deep end-to-end noise validation.
 *
 * 1. Linearity: the detector/observable flips of two simultaneous faults
 *    equal the XOR of their individual DEM signatures (the core premise
 *    of the whole circuit-level model).
 * 2. Statistics: Monte-Carlo sampling of the *actual noisy circuit* on
 *    the tableau simulator must reproduce the per-detector flip rates of
 *    the DEM sampler — the DEM is a faithful compression of the noisy
 *    circuit, not just an abstraction.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/surface.h"
#include "sim/dem_builder.h"
#include "support/sampling.h"
#include "support/tableau.h"

using namespace prophunt;
using namespace prophunt::sim;
using namespace prophunt::oracles;

namespace {

/** Tableau run with an arbitrary list of injected faults. */
std::vector<uint8_t>
runWithFaults(const circuit::SmCircuit &circ, Rng &rng,
              const std::vector<FaultLoc> &faults)
{
    Tableau tab(circ.numQubits);
    std::vector<uint8_t> meas;
    meas.reserve(circ.numMeasurements);
    auto apply_pauli = [&](Pauli p, std::size_t q) {
        switch (p) {
        case Pauli::I:
            break;
        case Pauli::X:
            tab.applyX(q);
            break;
        case Pauli::Y:
            tab.applyY(q);
            break;
        case Pauli::Z:
            tab.applyZ(q);
            break;
        }
    };
    for (std::size_t i = 0; i < circ.instructions.size(); ++i) {
        const auto &ins = circ.instructions[i];
        bool before = ins.op == circuit::OpType::MeasureZ ||
                      ins.op == circuit::OpType::MeasureX;
        if (before) {
            for (const FaultLoc &f : faults) {
                if (f.instr == i) {
                    apply_pauli(f.p0, ins.qubits[0]);
                }
            }
        }
        switch (ins.op) {
        case circuit::OpType::ResetZ:
            tab.resetZ(ins.qubits[0], rng);
            break;
        case circuit::OpType::ResetX:
            tab.resetX(ins.qubits[0], rng);
            break;
        case circuit::OpType::Cnot:
            tab.applyCnot(ins.qubits[0], ins.qubits[1]);
            break;
        case circuit::OpType::MeasureZ:
            meas.push_back(tab.measureZ(ins.qubits[0], rng));
            break;
        case circuit::OpType::MeasureX:
            meas.push_back(tab.measureX(ins.qubits[0], rng));
            break;
        case circuit::OpType::Tick:
            break;
        }
        if (!before) {
            for (const FaultLoc &f : faults) {
                if (f.instr == i) {
                    apply_pauli(f.p0, ins.qubits[0]);
                    if (ins.qubits.size() > 1) {
                        apply_pauli(f.p1, ins.qubits[1]);
                    }
                }
            }
        }
    }
    return meas;
}

} // namespace

TEST(NoiseValidation, TwoFaultFlipsAreXorOfSingles)
{
    code::SurfaceCode s(3);
    auto circ = circuit::buildMemoryCircuit(circuit::nzSchedule(s), 2,
                                            circuit::MemoryBasis::Z);
    Dem dem = buildDem(circ, NoiseModel::uniform(1e-3));

    // Signature lookup per fault location.
    std::map<std::tuple<std::size_t, int, int>,
             std::pair<std::vector<uint32_t>, std::vector<uint32_t>>>
        sig;
    for (const auto &mech : dem.errors) {
        for (const FaultLoc &loc : mech.sources) {
            sig[{loc.instr, (int)loc.p0, (int)loc.p1}] = {
                mech.detectors, mech.observables};
        }
    }
    std::vector<FaultLoc> locs;
    for (const auto &mech : dem.errors) {
        locs.push_back(mech.sources.front());
    }

    uint64_t seed = 5;
    Rng ref_rng(seed);
    auto ref = runTableau(circ, ref_rng);
    auto ref_det = detectorValues(circ, ref);

    Rng pick(77);
    for (int trial = 0; trial < 40; ++trial) {
        const FaultLoc &a = locs[pick.below(locs.size())];
        const FaultLoc &b = locs[pick.below(locs.size())];
        if (a.instr == b.instr) {
            continue; // same-site faults compose as Pauli products
        }
        Rng rng(seed);
        auto meas = runWithFaults(circ, rng, {a, b});
        auto det = detectorValues(circ, meas);
        // Expected: XOR of the two single-fault signatures.
        std::vector<uint8_t> expected = ref_det;
        for (const FaultLoc *f : {&a, &b}) {
            const auto &fs =
                sig.at({f->instr, (int)f->p0, (int)f->p1}).first;
            for (uint32_t d : fs) {
                expected[d] ^= 1;
            }
        }
        ASSERT_EQ(det, expected)
            << "faults at instr " << a.instr << " and " << b.instr;
    }
}

TEST(NoiseValidation, NoisyTableauMatchesDemSamplerStatistics)
{
    // Sample the *circuit* with explicit per-gate Pauli noise on the
    // tableau simulator and compare aggregate detector statistics with
    // the DEM sampler at the same physical rate.
    code::SurfaceCode s(3);
    auto circ = circuit::buildMemoryCircuit(circuit::nzSchedule(s), 2,
                                            circuit::MemoryBasis::Z);
    double p = 2e-2; // high rate for statistical power at modest shots
    Dem dem = buildDem(circ, NoiseModel::uniform(p));

    std::size_t shots = 3000;
    Rng noise_rng(11);
    double circ_flips = 0, circ_obs = 0;
    for (std::size_t shot = 0; shot < shots; ++shot) {
        // Draw the noisy realization: one fault list for this shot.
        std::vector<FaultLoc> faults;
        for (std::size_t i = 0; i < circ.instructions.size(); ++i) {
            const auto &ins = circ.instructions[i];
            switch (ins.op) {
            case circuit::OpType::ResetZ:
            case circuit::OpType::ResetX:
            case circuit::OpType::MeasureZ:
            case circuit::OpType::MeasureX:
                if (noise_rng.uniform() < p) {
                    FaultLoc f;
                    f.instr = i;
                    f.p0 = (Pauli)(1 + noise_rng.below(3));
                    faults.push_back(f);
                }
                break;
            case circuit::OpType::Cnot:
                if (noise_rng.uniform() < p) {
                    FaultLoc f;
                    f.instr = i;
                    std::size_t idx = 1 + noise_rng.below(15);
                    f.p0 = (Pauli)(idx / 4);
                    f.p1 = (Pauli)(idx % 4);
                    faults.push_back(f);
                }
                break;
            case circuit::OpType::Tick:
                break;
            }
        }
        Rng run_rng(shot * 31 + 7);
        auto meas = runWithFaults(circ, run_rng, faults);
        for (uint8_t d : detectorValues(circ, meas)) {
            circ_flips += d;
        }
        for (uint8_t o : observableValues(circ, meas)) {
            circ_obs += o;
        }
    }
    circ_flips /= shots;
    circ_obs /= shots;

    SampleBatch batch = sampleDem(dem, shots * 4, 13);
    double dem_flips = 0, dem_obs = 0;
    for (std::size_t shot = 0; shot < batch.shots; ++shot) {
        dem_flips += batch.flippedDetectors(shot).size();
        dem_obs += std::popcount(batch.obsMask(shot));
    }
    dem_flips /= batch.shots;
    dem_obs /= batch.shots;

    EXPECT_NEAR(circ_flips, dem_flips, 0.08 * dem_flips + 0.05);
    EXPECT_NEAR(circ_obs, dem_obs, 0.25 * std::max(dem_obs, 0.05));
}

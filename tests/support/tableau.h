/**
 * @file
 * Stabilizer tableau simulator (Aaronson-Gottesman CHP style), a test
 * oracle for the DEM builder (test support, not libprophunt).
 *
 * An exact simulator for the Clifford circuits this library builds. It is
 * deliberately independent of the Pauli-frame machinery in dem_builder so
 * the two can cross-validate: a noiseless memory experiment must produce
 * all-zero detectors, and injecting a single Pauli fault must flip exactly
 * the detectors and observables the DEM predicts for that fault location.
 */
#ifndef PROPHUNT_TESTS_SUPPORT_TABLEAU_H
#define PROPHUNT_TESTS_SUPPORT_TABLEAU_H

#include <cstdint>
#include <vector>

#include "circuit/sm_circuit.h"
#include "gf2/bitvec.h"
#include "sim/dem.h"
#include "sim/rng.h"

namespace prophunt::oracles {

/**
 * Stabilizer state of n qubits, initialized to |0...0>.
 *
 * Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers, following the
 * standard CHP layout with an extra scratch row for deterministic
 * measurements.
 */
class Tableau
{
  public:
    explicit Tableau(std::size_t n);

    std::size_t numQubits() const { return n_; }

    void applyH(std::size_t q);
    void applyCnot(std::size_t control, std::size_t target);
    void applyX(std::size_t q);
    void applyZ(std::size_t q);
    void applyY(std::size_t q);

    /**
     * Measure qubit @p q in the Z basis.
     *
     * @param rng Supplies the outcome for non-deterministic measurements.
     * @return The measurement outcome (0 or 1).
     */
    bool measureZ(std::size_t q, sim::Rng &rng);

    /** Measure in the X basis (H-conjugated Z measurement). */
    bool measureX(std::size_t q, sim::Rng &rng);

    /** Reset to |0> (measure Z, flip if 1). */
    void resetZ(std::size_t q, sim::Rng &rng);

    /** Reset to |+>. */
    void resetX(std::size_t q, sim::Rng &rng);

  private:
    void rowsum(std::size_t h, std::size_t i);
    int pauliPhaseExponent(bool x1, bool z1, bool x2, bool z2) const;

    std::size_t n_;
    // Row-major bit storage: x_[row] and z_[row] are n-bit vectors,
    // r_[row] the sign bit.
    std::vector<gf2::BitVec> x_;
    std::vector<gf2::BitVec> z_;
    std::vector<uint8_t> r_;
};

/**
 * Run a full SM circuit on the tableau simulator.
 *
 * @param circuit The circuit to execute.
 * @param rng Outcome source for random measurements.
 * @param inject Optional single fault: after (or, for measurements,
 * before) instruction inject->instr, apply inject->p0 to qubit 0 of the
 * instruction and inject->p1 to qubit 1 (CNOTs). Pass nullptr for a
 * noiseless run.
 * @return One bit per measurement, in circuit order.
 */
std::vector<uint8_t> runTableau(const circuit::SmCircuit &circuit,
                                sim::Rng &rng,
                                const sim::FaultLoc *inject = nullptr);

/** Detector values from a measurement record. */
std::vector<uint8_t> detectorValues(const circuit::SmCircuit &circuit,
                                    const std::vector<uint8_t> &meas);

/** Observable values from a measurement record. */
std::vector<uint8_t> observableValues(const circuit::SmCircuit &circuit,
                                      const std::vector<uint8_t> &meas);

} // namespace prophunt::oracles

#endif // PROPHUNT_TESTS_SUPPORT_TABLEAU_H

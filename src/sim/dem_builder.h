/**
 * @file
 * DEM extraction: deterministic Pauli-fault propagation through a circuit.
 *
 * Every fault location of the noise model is propagated through the rest
 * of the circuit using the CNOT rules of the paper's Figure 3b to find the
 * measurements (and hence detectors and observables) it flips. Faults with
 * identical detector/observable signatures are merged with the usual
 * independent-XOR probability combination p = p_a + p_b - 2 p_a p_b.
 *
 * Generator sweep. Pauli-frame propagation through resets, CNOTs and
 * measurements is linear over GF(2), Y = XZ up to phase, and a two-qubit
 * CNOT fault (Pc, Pt) is the product of its one-qubit components at the
 * same point in time. So only generators are propagated: X and Z on the
 * control and target after each CNOT, and X and Z at each reset,
 * measurement and idle site. One sweep over the circuit carries one bit
 * per generator in contiguous per-qubit X and Z bit planes; a CNOT is two
 * word-wise XORs per plane word. At each measurement the measured plane
 * row is XORed into the row of every detector and observable that reads
 * the measurement, so bit g of a detector's row ends up set iff generator
 * g flips it an odd number of times; reading those rows gives each
 * generator's detector and observable sets, ascending. A fault's signature
 * is the symmetric difference of at most four generator signatures.
 * Faults with an empty signature are dropped.
 *
 * Merge order. Signatures are kept in one flat arena and merged through an
 * open-addressing table keyed by their hash; a hash hit is confirmed by a
 * full comparison, so no merge is probabilistic. Faults are visited in
 * enumeration order — gate faults by instruction (X, Y, Z for resets and
 * measurements; the 15 pairs for CNOTs), then idle faults by CNOT layer
 * and qubit — so mechanisms appear in order of their first fault, each
 * mechanism's sources are in fault order, and p folds in fault order. The
 * output is therefore the same, bit for bit, as merging one fault at a
 * time. The builder keeps no shared state and may run concurrently.
 *
 * Sweep and merge. buildDem is two steps, and FaultSweep exposes them:
 * constructing a FaultSweep enumerates the fault sites, runs the generator
 * sweep and computes every generator's signature; FaultSweep::dem() then
 * merges the fault signatures and materializes the Dem. A caller that
 * only needs the mechanisms inside a detector set (candidate pruning)
 * asks the sweep for them with FaultSweep::interiorMechanisms(), which
 * merges only the sites whose generators touch the set and skips the full
 * merge, most of buildDem's time.
 */
#ifndef PROPHUNT_SIM_DEM_BUILDER_H
#define PROPHUNT_SIM_DEM_BUILDER_H

#include <memory>
#include <vector>

#include "circuit/sm_circuit.h"
#include "sim/dem.h"
#include "sim/noise_model.h"

namespace prophunt::sim {

/**
 * The first step of DEM extraction: every fault site of a circuit and the
 * detector and observable signature of each of its generators.
 *
 * A sweep refers to its circuit, which must outlive it. It is immutable
 * after construction, so its queries may run concurrently.
 */
class FaultSweep
{
  public:
    /**
     * Enumerate the fault sites of @p circuit under @p noise and propagate
     * their generators.
     *
     * @throws std::invalid_argument if noise.p1, noise.p2 or noise.pIdle
     * is not a finite probability in [0, 1].
     */
    FaultSweep(const circuit::SmCircuit &circuit, const NoiseModel &noise);
    ~FaultSweep();

    /** Merge the faults into mechanisms: the circuit's full DEM. */
    Dem dem() const;

    /**
     * The mechanisms of dem() whose detector set is non-empty and lies
     * inside @p detectors, in dem()'s order and with its p, but without
     * sources. Only the fault sites with a generator that touches
     * @p detectors are merged, so this costs a small part of dem().
     */
    Dem interiorMechanisms(const std::vector<uint32_t> &detectors) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Extract the detector error model of @p circuit under @p noise:
 * FaultSweep(circuit, noise).dem().
 *
 * @throws std::invalid_argument if noise.p1, noise.p2 or noise.pIdle is
 * not a finite probability in [0, 1].
 */
Dem buildDem(const circuit::SmCircuit &circuit, const NoiseModel &noise);

} // namespace prophunt::sim

#endif // PROPHUNT_SIM_DEM_BUILDER_H

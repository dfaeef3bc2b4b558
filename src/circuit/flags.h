/**
 * @file
 * Flag fault-tolerant SM circuits (the paper's future-work extension).
 *
 * A flag qubit coupled to a check's ancilla twice — after the first data
 * CNOT and before the last — catches exactly the harmful mid-sequence hook
 * errors: an ancilla fault between the two flag couplings flips the flag
 * measurement, while faults outside spread to at most one data qubit or to
 * w-1 qubits (stabilizer-equivalent to one). Following Chao-Reichardt-style
 * gadgets, X checks use a |0>-prepared flag as the target of ancilla
 * CNOTs; Z checks use a |+>-prepared flag as the control.
 *
 * Flag measurements become additional (deterministic) detectors, so the
 * generic DEM builder and decoders consume flagged circuits unchanged.
 */
#ifndef PROPHUNT_CIRCUIT_FLAGS_H
#define PROPHUNT_CIRCUIT_FLAGS_H

#include "circuit/schedule.h"
#include "circuit/sm_circuit.h"

namespace prophunt::circuit {

/**
 * Build a memory experiment with flag qubits on every check of weight >=
 * @p min_flag_weight.
 *
 * The schedule's CNOT orders are respected; each flagged check's round
 * becomes [d_1, flag, d_2 .. d_{w-1}, flag, d_w] in its own serialized
 * time slots (flags serialize a check's CNOTs, trading depth for hook
 * detection — the same depth/fidelity trade-off the paper's Figure 15
 * studies). Throws std::invalid_argument when @p rounds is 0.
 */
SmCircuit buildFlaggedMemoryCircuit(const SmSchedule &schedule,
                                    std::size_t rounds, MemoryBasis basis,
                                    std::size_t min_flag_weight = 4);

} // namespace prophunt::circuit

#endif // PROPHUNT_CIRCUIT_FLAGS_H

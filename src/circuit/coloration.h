/**
 * @file
 * The coloration-circuit baseline (after Tremblay et al., Algorithm 1).
 *
 * The baseline SM circuit for an arbitrary CSS code: greedily edge-color the
 * X-check Tanner graph and the Z-check Tanner graph, then run all X-check
 * CNOT layers (one per color) followed by all Z-check CNOT layers. Running
 * the X phase strictly before the Z phase makes every X/Z check pair cross
 * on *all* of its shared qubits — an even number for a CSS code — so the
 * schedule is commutation-valid for every code. This is the generic,
 * hook-error-oblivious starting point PropHunt optimizes. The coloring is
 * greedy (each edge takes the smallest color free at its check and its
 * qubit) rather than a minimum edge coloring: it is deterministic and needs
 * no matching machinery, at the price of possibly a few more CNOT layers
 * than the optimum.
 */
#ifndef PROPHUNT_CIRCUIT_COLORATION_H
#define PROPHUNT_CIRCUIT_COLORATION_H

#include <cstdint>
#include <memory>

#include "circuit/schedule.h"

namespace prophunt::circuit {

/** Deterministic coloration circuit (edges processed in sorted order). */
SmSchedule colorationSchedule(std::shared_ptr<const code::CssCode> code);

/**
 * Randomized coloration circuit: edges are processed in a seeded random
 * order, producing the "different, random coloration circuits" of the
 * paper's Figure 13.
 */
SmSchedule randomColorationSchedule(std::shared_ptr<const code::CssCode> code,
                                    uint64_t seed);

} // namespace prophunt::circuit

#endif // PROPHUNT_CIRCUIT_COLORATION_H

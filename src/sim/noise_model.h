/**
 * @file
 * Circuit-level depolarizing noise model (paper Section 6.1).
 *
 * Single-qubit operations (resets, and measurements — noise inserted just
 * before the measurement) suffer {X, Y, Z} each with probability p1/3;
 * CNOTs suffer each of the 15 non-identity two-qubit Paulis with
 * probability p2/15. Idle qubits in each CNOT layer optionally suffer
 * {X, Y, Z} each with pIdle/3 — the Pauli-twirling idle approximation used
 * by the Figure 15 sensitivity study.
 */
#ifndef PROPHUNT_SIM_NOISE_MODEL_H
#define PROPHUNT_SIM_NOISE_MODEL_H

namespace prophunt::sim {

/**
 * Error probabilities for the circuit-level model. Each strength must be a
 * finite probability in [0, 1]; buildDem rejects any other value.
 */
struct NoiseModel
{
    double p1 = 0.0;    ///< Depolarizing strength after 1q ops.
    double p2 = 0.0;    ///< Depolarizing strength after CNOTs.
    double pIdle = 0.0; ///< Per-CNOT-layer idle depolarizing strength.

    /** Uniform model: p1 = p2 = p, no idle noise. */
    static NoiseModel uniform(double p) { return {p, p, 0.0}; }

    /** Uniform gate noise plus idle noise of the given strength. */
    static NoiseModel withIdle(double p, double p_idle)
    {
        return {p, p, p_idle};
    }
};

} // namespace prophunt::sim

#endif // PROPHUNT_SIM_NOISE_MODEL_H

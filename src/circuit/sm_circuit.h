/**
 * @file
 * Executable syndrome-measurement circuits (memory experiments).
 *
 * An SmCircuit is a flat Clifford instruction stream (resets, CNOTs,
 * measurements, layer ticks) for a d-round memory experiment, plus the
 * detector and logical-observable definitions the circuit-level model needs
 * and per-CNOT provenance (check, data qubit, position, round) that lets
 * PropHunt map circuit-level errors back to schedule changes.
 *
 * Flag qubits (the paper's future-work extension) are optional. A flag
 * coupled to a check's ancilla twice, after the first data CNOT and before
 * the last, catches exactly the harmful mid-sequence hook errors: an
 * ancilla fault between the two flag couplings flips the flag measurement,
 * while faults outside spread to at most one data qubit or to w-1 qubits
 * (stabilizer-equivalent to one). Following Chao-Reichardt gadgets, X
 * checks use a |0>-prepared flag as the target of ancilla CNOTs; Z checks
 * use a |+>-prepared flag as the control. Each coupling sits in its own
 * gap layer after a schedule layer, so a flagged check's round becomes
 * [d_1, flag, d_2 .. d_{w-1}, flag, d_w] in serialized time slots: flags
 * trade depth for hook detection, the same depth/fidelity trade-off the
 * paper's Figure 15 studies. Flag measurements become additional
 * (deterministic) detectors, so the generic DEM builder and decoders
 * consume flagged circuits unchanged.
 */
#ifndef PROPHUNT_CIRCUIT_SM_CIRCUIT_H
#define PROPHUNT_CIRCUIT_SM_CIRCUIT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/schedule.h"

namespace prophunt::circuit {

/** Clifford operations appearing in SM circuits. */
enum class OpType : uint8_t
{
    ResetZ,   ///< Reset qubit to |0>.
    ResetX,   ///< Reset qubit to |+>.
    Cnot,     ///< qubits[0] = control, qubits[1] = target.
    MeasureZ, ///< Z-basis measurement.
    MeasureX, ///< X-basis measurement.
    Tick,     ///< Layer boundary (idle-noise insertion point).
};

/** One circuit instruction. */
struct Instruction
{
    OpType op;
    std::vector<uint32_t> qubits;
};

/** Provenance of a CNOT instruction: which schedule slot produced it. */
struct CnotInfo
{
    std::size_t check = 0;      ///< Global check index.
    std::size_t dataQubit = 0;  ///< Data qubit of the CNOT.
    std::size_t posInCheck = 0; ///< Position in the check's CNOT order.
    std::size_t round = 0;      ///< SM round.
    bool flag = false;          ///< True for flag-coupling CNOTs.
};

/** Memory-experiment basis. */
enum class MemoryBasis { Z, X };

/** A complete memory-experiment circuit with detector metadata. */
struct SmCircuit
{
    /**
     * Data qubits are [0, n); check ancillas are [n, n + m); flag qubits,
     * if any, are [n + m, n + m + f).
     */
    std::size_t numQubits = 0;
    std::size_t numData = 0;
    std::vector<Instruction> instructions;
    std::size_t numMeasurements = 0;

    /** Detector i = XOR of these measurement indices. */
    std::vector<std::vector<std::size_t>> detectors;
    /** Observable i = XOR of these measurement indices. */
    std::vector<std::vector<std::size_t>> observables;

    /**
     * For detector i, the (check, round) pair it monitors; round == rounds
     * denotes the final data-reconstruction detectors, and flag detectors
     * report (m + flag index, round). Detector indexing is
     * schedule-independent: it depends only on the code and round count, so
     * detector sets stay comparable across candidate schedule changes.
     */
    std::vector<std::pair<std::size_t, std::size_t>> detectorSource;

    /** cnotInfo[i] is valid iff instructions[i].op == Cnot. */
    std::vector<CnotInfo> cnotInfo;

    std::size_t rounds = 0;
    MemoryBasis basis = MemoryBasis::Z;

    /** Number of CNOT instructions (for reporting). */
    std::size_t countCnots() const;
};

/**
 * Build an @p rounds-round memory experiment for the given schedule.
 *
 * Memory-Z: data reset in |0>, Z-check detectors start at round 0 (their
 * first outcome is deterministic), X-check detectors compare consecutive
 * rounds starting at round 1, and the final transversal Z measurement both
 * reconstructs the Z checks and reads out the Z logical observables (rows
 * of L_Z). Memory-X is the basis-swapped mirror.
 *
 * A nonzero @p flag_weight puts a flag qubit on every check of at least
 * that weight and a Tick gap after every CNOT layer (see the file
 * comment); the schedule's CNOT orders are respected. Each round measures
 * its m check ancillas and then its f flags, and each round's flag
 * detectors follow its check detectors. With @p flag_weight 0 the circuit
 * has no flags and no gaps. Throws std::invalid_argument when @p rounds is
 * 0 or the schedule is unschedulable.
 */
SmCircuit buildMemoryCircuit(const SmSchedule &schedule, std::size_t rounds,
                             MemoryBasis basis, std::size_t flag_weight = 0);

} // namespace prophunt::circuit

#endif // PROPHUNT_CIRCUIT_SM_CIRCUIT_H

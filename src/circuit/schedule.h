/**
 * @file
 * Syndrome-measurement schedules: the object PropHunt optimizes.
 *
 * A schedule is two families of total orders (the paper's Section 5.3
 * internal representation):
 *
 *  - per check: the order in which a syndrome qubit performs CNOTs with its
 *    data qubits ("check order", modified by *reordering* changes);
 *  - per data qubit: the order in which the checks touching that qubit get
 *    their CNOT ("relative scheduling", the directed multi-edge graph of the
 *    paper's Figure 11, modified by *rescheduling* changes).
 *
 * A schedule is *schedulable* iff the combined precedence constraints are
 * acyclic; the minimal-depth timestep assignment is the longest-path
 * layering. It is *commutation-valid* iff every X-check/Z-check pair crosses
 * on an even number of shared qubits (each shared qubit where the X CNOT
 * precedes the Z CNOT contributes one effective ancilla-ancilla CNOT; pairs
 * cancel).
 */
#ifndef PROPHUNT_CIRCUIT_SCHEDULE_H
#define PROPHUNT_CIRCUIT_SCHEDULE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "code/css_code.h"

namespace prophunt::circuit {

/** Timestep assignment for every CNOT of one round of the SM circuit. */
struct Timesteps
{
    /** t[check][k] = timestep of the k-th CNOT in that check's order. */
    std::vector<std::vector<std::size_t>> t;
    /** Number of CNOT layers in the round. */
    std::size_t depth = 0;
};

/** An SM schedule for a CSS code. Value type; mutations return copies. */
class SmSchedule
{
  public:
    /**
     * Build from explicit orders.
     *
     * @param code The CSS code (shared; schedules are cheap copies).
     * @param check_order Per check (global index), data qubits in CNOT order.
     * @param qubit_order Per data qubit, touching checks in CNOT order.
     */
    SmSchedule(std::shared_ptr<const code::CssCode> code,
               std::vector<std::vector<std::size_t>> check_order,
               std::vector<std::vector<std::size_t>> qubit_order);

    /**
     * Build from explicit per-CNOT timesteps.
     *
     * @param ts ts[check] = list of (data qubit, timestep); two CNOTs on the
     * same qubit must not share a timestep.
     */
    static SmSchedule fromTimesteps(
        std::shared_ptr<const code::CssCode> code,
        const std::vector<std::vector<std::pair<std::size_t, std::size_t>>>
            &ts);

    const code::CssCode &code() const { return *code_; }
    std::shared_ptr<const code::CssCode> codePtr() const { return code_; }

    const std::vector<std::size_t> &checkOrder(std::size_t check) const
    {
        return checkOrder_[check];
    }
    const std::vector<std::size_t> &qubitOrder(std::size_t qubit) const
    {
        return qubitOrder_[qubit];
    }

    /** Position of @p qubit within @p check's CNOT order. */
    std::size_t posInCheck(std::size_t check, std::size_t qubit) const;

    /** Position of @p check within @p qubit's cross-check order. */
    std::size_t posOnQubit(std::size_t qubit, std::size_t check) const;

    /** True iff every X/Z check pair crosses evenly on shared qubits. */
    bool commutationValid() const;

    /** True iff the precedence constraints are acyclic. */
    bool schedulable() const;

    /** Minimal-depth layering, or nullopt if the schedule has a cycle. */
    std::optional<Timesteps> computeTimesteps() const;

    /** CNOT depth of one round; throws if unschedulable. */
    std::size_t depth() const;

    /**
     * Reordering change (paper Section 5.3.1): move the data qubit at
     * position @p from_pos of @p check to directly precede position
     * @p before_pos. The qubit's cross-check orders are unchanged.
     */
    SmSchedule withReorder(std::size_t check, std::size_t from_pos,
                           std::size_t before_pos) const;

    /**
     * Rescheduling change (paper Section 5.3.2): swap the relative order of
     * checks @p check_a and @p check_b on data qubit @p qubit.
     */
    SmSchedule withRelativeSwap(std::size_t qubit, std::size_t check_a,
                                std::size_t check_b) const;

    /** Data qubits shared by two checks, ascending. */
    std::vector<std::size_t> sharedQubits(std::size_t check_a,
                                          std::size_t check_b) const;

    bool operator==(const SmSchedule &other) const
    {
        return checkOrder_ == other.checkOrder_ &&
               qubitOrder_ == other.qubitOrder_;
    }

  private:
    std::shared_ptr<const code::CssCode> code_;
    std::vector<std::vector<std::size_t>> checkOrder_;
    std::vector<std::vector<std::size_t>> qubitOrder_;
};

/**
 * Structural hash of a schedule: code shape (name, n, k, check supports)
 * plus both order families. Equal schedules of equal codes hash equal
 * across processes. A hash match is a bucket, not an identity: callers
 * that need identity confirm it with operator==.
 */
uint64_t hashSchedule(const SmSchedule &schedule);

} // namespace prophunt::circuit

#endif // PROPHUNT_CIRCUIT_SCHEDULE_H

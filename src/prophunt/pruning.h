/**
 * @file
 * Candidate-change pruning (paper Section 5.4).
 *
 * Two checks gate every candidate:
 *
 *  1. Circuit validity: stabilizer commutation is preserved and the CNOT
 *     precedence constraints are acyclic (schedulable).
 *  2. Ambiguity removal: with the candidate applied, the original ambiguous
 *     detector set must decode unambiguously (all logical rows back in
 *     rowspace(H')), and the updated circuit-level errors at the same gate
 *     fault locations must no longer form an undetected logical error
 *     (H'e' != 0 or L'e' = 0).
 *
 * Detector indices are schedule-independent (a detector is a (check, round)
 * pair), so the "original ambiguous syndrome bits" transfer directly to the
 * candidate's DEM.
 *
 * Check 2 runs in three stages, and most candidates stop after the second:
 *
 *  1. Sweep: build the candidate's circuit and its sim::FaultSweep (fault
 *     sites and generator signatures), once per distinct candidate
 *     schedule and basis.
 *  2. Pre-check: run the rowspace test on the sweep's interior
 *     mechanisms (sim::FaultSweep::interiorMechanisms), the full DEM's
 *     mechanisms whose non-empty detector set lies inside S'. They are the
 *     full check's columns minus the detector-free ones, a column subset.
 *     If a logical row restricted to a column subset is not in the
 *     rowspace of H' on that subset, it is not in the rowspace on any
 *     superset either: restricting a solution y^T H' = l to the subset
 *     would give one there. So every pre-check rejection is a full-check
 *     rejection.
 *  3. Full check: only for candidates that pass, merge the sweep into the
 *     full DEM (at most once per sweep) and run the unchanged check:
 *     interior set, ambiguity, then the logical check over fault keys.
 *
 * Verdicts are therefore those of the full check alone. The only interior
 * mechanisms the pre-check does not see are detector-free ones (a
 * mechanism that flips only observables). They need no fallback: such a
 * column is zero in H', so it can only move a logical row out of the
 * rowspace, that is, make the full check reject more, never less.
 */
#ifndef PROPHUNT_PROPHUNT_PRUNING_H
#define PROPHUNT_PROPHUNT_PRUNING_H

#include <optional>

#include "prophunt/changes.h"
#include "prophunt/subgraph.h"
#include "sim/dem_builder.h"
#include "sim/noise_model.h"

namespace prophunt::core {

/** A candidate change that survived pruning. */
struct VerifiedChange
{
    CircuitChange change;
    circuit::SmSchedule schedule;
    std::size_t depth = 0;
};

/**
 * Check one candidate; returns the verified change or nullopt.
 *
 * @param base Current schedule.
 * @param change Candidate to verify.
 * @param ambiguous_detectors The subgraph's detector set S'.
 * @param logical_errors Mechanisms of the found min-weight logical error
 * in the current DEM (their sources identify the gates to re-check).
 * @param dem Current DEM (for fault-location keys).
 * @param rounds, basis, noise Circuit-construction parameters (must match
 * the DEM the subgraph was found in).
 */
std::optional<VerifiedChange> verifyChange(
    const circuit::SmSchedule &base, const CircuitChange &change,
    const std::vector<uint32_t> &ambiguous_detectors,
    const std::vector<uint32_t> &logical_errors, const sim::Dem &dem,
    std::size_t rounds, circuit::MemoryBasis basis,
    const sim::NoiseModel &noise);

/** One candidate of a verification batch; the arguments of verifyChange
 * that vary between candidates. All pointees must outlive the batch. */
struct VerifyTask
{
    const CircuitChange *change = nullptr;
    circuit::MemoryBasis basis = circuit::MemoryBasis::Z;
    /** The subgraph's detector set S'. */
    const std::vector<uint32_t> *ambiguousDetectors = nullptr;
    /** Mechanisms of the subgraph's min-weight logical error in *dem. */
    const std::vector<uint32_t> *logicalErrors = nullptr;
    /** The current DEM of this basis. */
    const sim::Dem *dem = nullptr;
};

/** Work done by verifyChanges. */
struct VerifyStats
{
    /** Distinct valid (basis, candidate schedule) pairs: sweeps built. */
    std::size_t candidateSchedules = 0;
    /** Candidates rejected by the sweep pre-check. */
    std::size_t precheckRejected = 0;
    /** Full DEMs merged for candidates that passed the pre-check. */
    std::size_t fullDemBuilds = 0;

    VerifyStats &operator+=(const VerifyStats &o)
    {
        candidateSchedules += o.candidateSchedules;
        precheckRejected += o.precheckRejected;
        fullDemBuilds += o.fullDemBuilds;
        return *this;
    }
};

/**
 * verifyChange for every task, on up to @p threads workers.
 *
 * Tasks are grouped by (basis, candidate schedule) in order of first
 * appearance; each group's circuit, sweep and full DEM are built at most
 * once and freed when the group is done. Result i is task i's verdict, the
 * same as verifyChange's, for every thread count.
 */
std::vector<std::optional<VerifiedChange>> verifyChanges(
    const circuit::SmSchedule &base, const std::vector<VerifyTask> &tasks,
    std::size_t rounds, const sim::NoiseModel &noise, std::size_t threads,
    VerifyStats *stats = nullptr);

/**
 * The sweep pre-check: true iff the rowspace test already finds ambiguity
 * on @p sweep's interior mechanisms of @p ambiguous_detectors. A true
 * result implies the full check rejects (see the file comment).
 */
bool precheckRejects(const sim::FaultSweep &sweep,
                     const std::vector<uint32_t> &ambiguous_detectors);

} // namespace prophunt::core

#endif // PROPHUNT_PROPHUNT_PRUNING_H

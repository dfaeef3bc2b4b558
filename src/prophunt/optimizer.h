/**
 * @file
 * The PropHunt iterative optimization loop (paper Section 5, Figure 8).
 *
 * Each iteration: (1) build the circuit-level decoding graph of the current
 * schedule; (2) sample random subgraphs in parallel until ambiguity is
 * found; (3) solve each ambiguous subgraph for a min-weight logical error
 * with MaxSAT; (4) enumerate reordering/rescheduling candidates; (5) prune
 * by validity and ambiguity removal; (6) apply, preferring the minimum
 * resulting circuit depth when multiple verified changes target the same
 * subgraph. Iterations run on both memory bases so X- and Z-side hook
 * errors are both optimized.
 */
#ifndef PROPHUNT_PROPHUNT_OPTIMIZER_H
#define PROPHUNT_PROPHUNT_OPTIMIZER_H

#include <cstdint>
#include <limits>
#include <vector>

#include "prophunt/changes.h"
#include "prophunt/minweight.h"
#include "prophunt/pruning.h"
#include "prophunt/subgraph.h"
#include "sim/noise_model.h"

namespace prophunt::core {

/** Tuning knobs of the optimization loop. */
struct PropHuntOptions
{
    std::size_t iterations = 25;
    std::size_t samplesPerIteration = 500;
    /** Subgraph expansion budget (error nodes). */
    std::size_t maxSubgraphErrors = 48;
    /** Ambiguous subgraphs processed per iteration (per basis). */
    std::size_t maxAmbiguousPerIteration = 8;
    /** Gate error rate used for the circuit-level model. */
    double p = 1e-3;
    /** MaxSAT weight bound. */
    std::size_t maxCost = 12;
    double satTimeoutSeconds = 5.0;
    /**
     * Worker threads for subgraph sampling and candidate verification
     * (0 = hardware concurrency).
     */
    std::size_t threads = 0;
    uint64_t seed = 1;
    /**
     * Ablation: verify that candidates actually remove the found
     * ambiguity (Section 5.4). Off = apply any commutation-valid,
     * schedulable candidate.
     */
    bool verifyAmbiguityRemoval = true;
    /**
     * Ablation: among verified changes for one subgraph, apply the one
     * with minimal circuit depth (Section 5.5). Off = first verified.
     */
    bool preferMinDepth = true;
    /**
     * Upper bound on the depth of applied schedules (0 = unlimited),
     * checked on the schedule each change lands on, after the changes
     * applied before it in the same iteration.
     * Circuit depth is the paper's secondary optimization target; a
     * slack over the starting depth keeps depth creep bounded when the
     * remaining ambiguity is at the code distance and irreducible.
     */
    std::size_t maxDepth = 0;
};

/** Telemetry for one optimization iteration. */
struct IterationRecord
{
    std::size_t iteration = 0;
    std::size_t ambiguousFound = 0;
    std::size_t candidatesEnumerated = 0;
    std::size_t changesVerified = 0;
    std::size_t changesApplied = 0;
    /** Distinct (basis, candidate schedule) pairs swept in verification. */
    std::size_t candidateSchedules = 0;
    /** Candidates the sweep pre-check rejected (pruning.h). */
    std::size_t precheckRejected = 0;
    /** Full candidate DEMs built for pre-check survivors. */
    std::size_t fullDemBuilds = 0;
    std::size_t depth = 0;
    /** Minimum logical-error weight seen (circuit-level d_eff estimate). */
    std::size_t minLogicalWeight = std::numeric_limits<std::size_t>::max();
    /** Per-solve MaxSAT statistics (Figure 14 scaling data). */
    std::vector<sat::MaxSatStats> solveStats;
    /** Weights of solved min-weight logical errors. */
    std::vector<std::size_t> solveWeights;
};

/** Optimization outcome: the final schedule plus per-iteration telemetry
 * and intermediate schedule snapshots (the Hook-ZNE raw material). */
struct OptimizeResult
{
    std::vector<IterationRecord> history;
    /** Schedule after each iteration (snapshots[0] = input). */
    std::vector<circuit::SmSchedule> snapshots;

    const circuit::SmSchedule &finalSchedule() const
    {
        return snapshots.back();
    }
};

/** The PropHunt optimizer. */
class PropHunt
{
  public:
    explicit PropHunt(PropHuntOptions options) : opts_(options) {}

    /**
     * Optimize a schedule.
     *
     * @param start Starting schedule (e.g. a coloration circuit).
     * @param rounds Rounds of the memory experiment used for the
     * circuit-level model (typically the code distance).
     */
    OptimizeResult optimize(const circuit::SmSchedule &start,
                            std::size_t rounds) const;

  private:
    PropHuntOptions opts_;
};

/**
 * Estimate the circuit-level effective distance of a schedule: the minimum
 * weight over min-weight logical errors of sampled ambiguous subgraphs
 * (both bases). Returns max() if no ambiguity was found within the budget.
 */
std::size_t estimateEffectiveDistance(const circuit::SmSchedule &schedule,
                                      std::size_t rounds, double p,
                                      std::size_t samples, uint64_t seed);

} // namespace prophunt::core

#endif // PROPHUNT_PROPHUNT_OPTIMIZER_H

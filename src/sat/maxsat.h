/**
 * @file
 * MaxSAT via incremental cardinality-bounded linear search.
 *
 * Soft constraints are unit literals we would like true; the optimum is the
 * minimum number of violated softs subject to the hard clauses. PropHunt's
 * min-weight logical errors have small optima (the effective distance), so
 * an ascending linear search — SAT-solve with "at most k violations" for
 * k = 0, 1, 2, ... — converges in a handful of incremental calls.
 */
#ifndef PROPHUNT_SAT_MAXSAT_H
#define PROPHUNT_SAT_MAXSAT_H

#include <cstddef>
#include <utility>
#include <vector>

#include "sat/solver.h"

namespace prophunt::sat {

/** Model-size statistics, reported in the paper's Table 2 format. */
struct MaxSatStats
{
    std::size_t variables = 0;
    std::size_t hardClauses = 0;
    std::size_t softClauses = 0;
    double wallSeconds = 0.0;
    bool timedOut = false;
};

/** Outcome of a MaxSAT solve. */
struct MaxSatResult
{
    bool satisfiable = false;
    /** Minimum number of violated soft constraints. */
    std::size_t optimum = 0;
    /** Model values per variable (valid if satisfiable). */
    std::vector<bool> model;
    MaxSatStats stats;
};

/** Incremental MaxSAT solver built on the CDCL core. */
class MaxSatSolver
{
  public:
    Var newVar() { return solver_.newVar(); }

    /** Add a hard clause. */
    void addHard(std::vector<Lit> lits) { solver_.addClause(std::move(lits)); }

    /**
     * The solver that holds the hard clauses, for encoders that add them
     * directly (e.g. sat::encodeXorTree). Adding a clause here is the same
     * as addHard.
     */
    Solver &hardSolver() { return solver_; }

    /** Add a soft unit literal (prefer @p l true; violation costs 1). */
    void addSoft(Lit l) { softs_.push_back(l); }

    std::size_t numSoft() const { return softs_.size(); }

    /**
     * Minimize soft violations.
     *
     * @param max_cost Upper bound on the searched cost (cardinality width).
     * @param timeout_seconds Wall-clock budget across all SAT calls.
     */
    MaxSatResult solve(std::size_t max_cost, double timeout_seconds);

  private:
    Solver solver_;
    std::vector<Lit> softs_;
};

} // namespace prophunt::sat

#endif // PROPHUNT_SAT_MAXSAT_H

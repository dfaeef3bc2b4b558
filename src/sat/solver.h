/**
 * @file
 * A compact CDCL SAT solver.
 *
 * Standard architecture: two-watched-literal propagation, first-UIP
 * conflict analysis with clause learning, EVSIDS branching, phase saving,
 * Luby restarts, and assumption-based incremental solving. It replaces the
 * paper's Z3 + Loandra stack so the library has no external solver
 * dependency; PropHunt's subgraph models are small (hundreds of
 * variables), and the solver can still attempt — and time out on — the
 * global formulations of Table 2.
 */
#ifndef PROPHUNT_SAT_SOLVER_H
#define PROPHUNT_SAT_SOLVER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prophunt::sat {

/** Variables are non-negative integers; literals pack variable and sign. */
using Var = int32_t;
using Lit = int32_t;

inline Lit
mkLit(Var v, bool negated = false)
{
    return v * 2 + (negated ? 1 : 0);
}

inline Lit
negate(Lit l)
{
    return l ^ 1;
}

inline Var
varOf(Lit l)
{
    return l >> 1;
}

inline bool
isNegated(Lit l)
{
    return l & 1;
}

/** Result of a solve call. */
enum class SolveResult { Sat, Unsat, Unknown };

/** CDCL solver. */
class Solver
{
  public:
    Solver();

    /** Allocate a fresh variable and return it. */
    Var newVar();

    std::size_t numVars() const { return (std::size_t)numVars_; }
    std::size_t numClauses() const { return numClauses_; }

    /**
     * Add a clause. Returns false if the formula became trivially
     * unsatisfiable (empty clause at level 0).
     */
    bool addClause(std::vector<Lit> lits);

    /**
     * Solve under assumptions.
     *
     * @param assumptions Literals forced true for this call only.
     * @param timeout_seconds Wall-clock budget; Unknown on expiry.
     */
    SolveResult solve(const std::vector<Lit> &assumptions,
                      double timeout_seconds = 1e18);

    /** Model value of a variable (valid after Sat). */
    bool modelValue(Var v) const { return model_[v]; }

    /** Number of conflicts encountered so far (diagnostics). */
    uint64_t conflicts() const { return conflicts_; }

  private:
    // Clause storage: clauses live in an arena; a clause reference is an
    // offset. Layout: [size][lit0][lit1]...[activity is not stored; learned
    // clause deletion is skipped at this scale].
    using Cref = uint32_t;
    static constexpr Cref kNoReason = 0xffffffffu;

    int litValue(Lit l) const;
    void assign(Lit l, Cref reason);
    Cref propagate();
    void analyze(Cref conflict, std::vector<Lit> &learned, int &bt_level);
    void backtrack(int level);
    void bumpVar(Var v);
    void decayActivities();
    Var pickBranchVar();
    bool enqueueAssumptions(const std::vector<Lit> &assumptions);

    int32_t numVars_ = 0;
    std::size_t numClauses_ = 0;

    std::vector<int32_t> arena_;
    std::vector<Cref> clauses_;

    std::vector<int8_t> assigns_;      ///< Per var: 0 unset, 1 true, -1 false.
    std::vector<int32_t> level_;       ///< Decision level per var.
    std::vector<Cref> reason_;         ///< Implying clause per var.
    std::vector<Lit> trail_;
    std::vector<std::size_t> trailLim_; ///< Trail size at each level.
    std::size_t qhead_ = 0;

    std::vector<std::vector<Cref>> watches_; ///< Indexed by literal.

    std::vector<double> activity_;
    double varInc_ = 1.0;
    std::vector<int8_t> phase_;

    std::vector<int8_t> seen_; ///< Scratch for conflict analysis.

    uint64_t conflicts_ = 0;
    bool unsat_ = false;
    std::vector<bool> model_;
};

} // namespace prophunt::sat

#endif // PROPHUNT_SAT_SOLVER_H

#include "sat/maxsat.h"

#include <chrono>

#include "sat/cardinality.h"

namespace prophunt::sat {

MaxSatResult
MaxSatSolver::solve(std::size_t max_cost, double timeout_seconds)
{
    auto start = std::chrono::steady_clock::now();
    auto elapsed = [&]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    MaxSatResult result;
    result.stats.softClauses = softs_.size();

    // Violation indicators: v_i true iff soft_i violated.
    std::vector<Lit> violations;
    violations.reserve(softs_.size());
    for (Lit s : softs_) {
        violations.push_back(negate(s));
    }
    std::vector<Lit> outputs =
        encodeCounter(solver_, violations, max_cost);

    result.stats.variables = solver_.numVars();
    result.stats.hardClauses = solver_.numClauses();

    for (std::size_t k = 0; k <= max_cost; ++k) {
        double remaining = timeout_seconds - elapsed();
        if (remaining <= 0) {
            result.stats.timedOut = true;
            break;
        }
        std::vector<Lit> assumptions;
        if (k < outputs.size()) {
            assumptions.push_back(negate(outputs[k]));
        }
        SolveResult r = solver_.solve(assumptions, remaining);
        if (r == SolveResult::Sat) {
            result.satisfiable = true;
            result.model.resize(solver_.numVars());
            for (std::size_t v = 0; v < solver_.numVars(); ++v) {
                result.model[v] = solver_.modelValue((Var)v);
            }
            if (k < outputs.size()) {
                result.optimum = k;
            } else {
                // Unbounded call: report the model's actual violation count.
                result.optimum = 0;
                for (Lit s : softs_) {
                    bool val = solver_.modelValue(varOf(s));
                    if (isNegated(s) ? val : !val) {
                        ++result.optimum;
                    }
                }
            }
            break;
        }
        if (r == SolveResult::Unknown) {
            result.stats.timedOut = true;
            break;
        }
        if (k >= outputs.size()) {
            // Even unbounded cost is unsatisfiable: hard clauses conflict.
            break;
        }
    }
    result.stats.wallSeconds = elapsed();
    return result;
}

} // namespace prophunt::sat

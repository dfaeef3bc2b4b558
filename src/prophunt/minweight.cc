#include "prophunt/minweight.h"

#include <numeric>
#include <utility>

#include "sat/xor_encoder.h"

namespace prophunt::core {

namespace {

/** Shared formulation over an arbitrary error subset. */
MinWeightResult
solveOnErrors(const sim::Dem &dem, const std::vector<uint32_t> &errors,
              const std::vector<uint32_t> &detectors, std::size_t max_cost,
              double timeout_seconds)
{
    MinWeightResult result;
    sat::MaxSatSolver maxsat;

    // One variable per error mechanism.
    std::vector<sat::Var> evar(errors.size());
    for (std::size_t i = 0; i < errors.size(); ++i) {
        evar[i] = maxsat.newVar();
    }

    // Syndrome parities: XOR of incident errors must be false.
    std::vector<int> det_local(dem.numDetectors, -1);
    for (std::size_t i = 0; i < detectors.size(); ++i) {
        det_local[detectors[i]] = (int)i;
    }
    std::vector<std::vector<sat::Lit>> det_inputs(detectors.size());
    std::vector<std::vector<sat::Lit>> obs_inputs(dem.numObservables);
    for (std::size_t i = 0; i < errors.size(); ++i) {
        const auto &mech = dem.errors[errors[i]];
        for (uint32_t d : mech.detectors) {
            if (det_local[d] >= 0) {
                det_inputs[det_local[d]].push_back(sat::mkLit(evar[i]));
            }
        }
        for (uint32_t o : mech.observables) {
            obs_inputs[o].push_back(sat::mkLit(evar[i]));
        }
    }

    for (std::size_t d = 0; d < detectors.size(); ++d) {
        if (det_inputs[d].empty()) {
            continue;
        }
        sat::Lit out =
            sat::encodeXorTree(maxsat.hardSolver(), std::move(det_inputs[d]));
        maxsat.addHard({sat::negate(out)}); // syndrome must stay unflipped
    }

    std::vector<sat::Lit> logical_outs;
    for (std::size_t o = 0; o < dem.numObservables; ++o) {
        if (obs_inputs[o].empty()) {
            continue;
        }
        logical_outs.push_back(
            sat::encodeXorTree(maxsat.hardSolver(), std::move(obs_inputs[o])));
    }
    if (logical_outs.empty()) {
        return result; // no logical support: no logical error possible
    }
    maxsat.addHard(logical_outs); // at least one observable flips

    for (std::size_t i = 0; i < errors.size(); ++i) {
        maxsat.addSoft(sat::negate(sat::mkLit(evar[i]))); // prefer E_i false
    }

    sat::MaxSatResult r = maxsat.solve(max_cost, timeout_seconds);
    result.stats = r.stats;
    if (!r.satisfiable) {
        return result;
    }
    result.found = true;
    result.weight = r.optimum;
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (r.model[(std::size_t)evar[i]]) {
            result.errors.push_back(errors[i]);
        }
    }
    return result;
}

} // namespace

MinWeightResult
solveMinWeightLogical(const sim::Dem &dem, const Subgraph &subgraph,
                      std::size_t max_cost, double timeout_seconds)
{
    return solveOnErrors(dem, subgraph.errors, subgraph.detectors, max_cost,
                         timeout_seconds);
}

MinWeightResult
solveGlobalMinWeight(const sim::Dem &dem, std::size_t max_cost,
                     double timeout_seconds)
{
    std::vector<uint32_t> all_errors(dem.errors.size());
    std::iota(all_errors.begin(), all_errors.end(), 0);
    std::vector<uint32_t> all_dets(dem.numDetectors);
    std::iota(all_dets.begin(), all_dets.end(), 0);
    return solveOnErrors(dem, all_errors, all_dets, max_cost,
                         timeout_seconds);
}

} // namespace prophunt::core

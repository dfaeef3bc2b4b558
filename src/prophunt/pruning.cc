#include "prophunt/pruning.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <tuple>
#include <unordered_map>

#include "sim/parallel_sampler.h"

namespace prophunt::core {

namespace {

/** Schedule-independent identity of a CNOT fault. */
using FaultKey = std::tuple<std::size_t, std::size_t, std::size_t, uint8_t,
                            uint8_t>; // check, data qubit, round, p0, p1

FaultKey
keyOf(const sim::FaultLoc &loc)
{
    return {loc.cnot.check, loc.cnot.dataQubit, loc.cnot.round,
            (uint8_t)loc.p0, (uint8_t)loc.p1};
}

/** A schedule slot's CNOT fault; flag couplings are not schedule slots. */
bool
isSlotFault(const sim::FaultLoc &loc)
{
    return loc.isCnot && !loc.cnot.flag;
}

/** A candidate's full DEM and the mechanism of each slot fault. */
struct FullModel
{
    sim::Dem dem;
    std::map<FaultKey, uint32_t> mechOf;

    explicit FullModel(sim::Dem d) : dem(std::move(d))
    {
        for (std::size_t e = 0; e < dem.errors.size(); ++e) {
            for (const sim::FaultLoc &loc : dem.errors[e].sources) {
                if (isSlotFault(loc)) {
                    mechOf[keyOf(loc)] = (uint32_t)e;
                }
            }
        }
    }
};

/**
 * True iff the faults of the old logical error still form an undetected
 * logical error in the candidate's model.
 */
bool
stillUndetectedLogical(const FullModel &full, const sim::Dem &dem,
                       const std::vector<uint32_t> &logical_errors)
{
    std::vector<uint32_t> det_parity(full.dem.numDetectors, 0);
    std::vector<uint32_t> obs_parity(full.dem.numObservables, 0);
    bool any_mapped = false;
    for (uint32_t err : logical_errors) {
        for (const sim::FaultLoc &loc : dem.errors[err].sources) {
            if (!isSlotFault(loc)) {
                continue;
            }
            auto it = full.mechOf.find(keyOf(loc));
            if (it == full.mechOf.end()) {
                continue; // fault became trivial in the new circuit
            }
            any_mapped = true;
            const auto &mech = full.dem.errors[it->second];
            for (uint32_t d : mech.detectors) {
                det_parity[d] ^= 1;
            }
            for (uint32_t o : mech.observables) {
                obs_parity[o] ^= 1;
            }
            break; // one representative fault per mechanism
        }
    }
    if (!any_mapped) {
        return false;
    }
    auto odd = [](uint32_t v) { return v != 0; };
    bool detected = std::any_of(det_parity.begin(), det_parity.end(), odd);
    bool logical = std::any_of(obs_parity.begin(), obs_parity.end(), odd);
    return !detected && logical;
}

/**
 * Verify tasks[i] for each i in @p group. The tasks share one basis and
 * one candidate schedule, so its validity, circuit and sweep are computed
 * once, and the full DEM at most once, on the first pre-check survivor.
 */
void
verifyGroup(const circuit::SmSchedule &candidate,
            const std::vector<VerifyTask> &tasks,
            std::span<const std::size_t> group, std::size_t rounds,
            const sim::NoiseModel &noise,
            std::vector<std::optional<VerifiedChange>> &results,
            VerifyStats &stats)
{
    // 1. Circuit validity.
    if (!candidate.commutationValid()) {
        return;
    }
    auto ts = candidate.computeTimesteps();
    if (!ts) {
        return; // cyclic precedence: not schedulable
    }

    // 2. Ambiguity removal, staged: sweep, pre-check, full check.
    circuit::SmCircuit circ = circuit::buildMemoryCircuit(
        candidate, rounds, tasks[group.front()].basis);
    sim::FaultSweep sweep(circ, noise);
    ++stats.candidateSchedules;
    std::optional<FullModel> full;
    for (std::size_t i : group) {
        const VerifyTask &task = tasks[i];
        const std::vector<uint32_t> &detectors = *task.ambiguousDetectors;
        if (precheckRejects(sweep, detectors)) {
            ++stats.precheckRejected;
            continue;
        }
        if (!full) {
            full.emplace(sweep.dem());
            ++stats.fullDemBuilds;
        }
        // Ambiguity must be gone on the original syndrome bits.
        if (hasAmbiguity(full->dem, detectors,
                         interiorErrors(full->dem, detectors))) {
            continue;
        }
        // The updated circuit-level errors at the original fault locations
        // must not constitute a new undetected logical error.
        if (stillUndetectedLogical(*full, *task.dem, *task.logicalErrors)) {
            continue;
        }
        results[i] = VerifiedChange{*task.change, candidate, ts->depth};
    }
}

} // namespace

bool
precheckRejects(const sim::FaultSweep &sweep,
                const std::vector<uint32_t> &ambiguous_detectors)
{
    sim::Dem columns = sweep.interiorMechanisms(ambiguous_detectors);
    std::vector<uint32_t> all(columns.errors.size());
    std::iota(all.begin(), all.end(), 0u);
    return hasAmbiguity(columns, ambiguous_detectors, all);
}

std::optional<VerifiedChange>
verifyChange(const circuit::SmSchedule &base, const CircuitChange &change,
             const std::vector<uint32_t> &ambiguous_detectors,
             const std::vector<uint32_t> &logical_errors,
             const sim::Dem &dem, std::size_t rounds,
             circuit::MemoryBasis basis, const sim::NoiseModel &noise)
{
    const std::vector<VerifyTask> tasks{
        {&change, basis, &ambiguous_detectors, &logical_errors, &dem}};
    std::vector<std::optional<VerifiedChange>> results(1);
    const std::size_t only = 0;
    VerifyStats stats;
    verifyGroup(change.apply(base), tasks, {&only, 1}, rounds, noise,
                results, stats);
    return std::move(results[0]);
}

std::vector<std::optional<VerifiedChange>>
verifyChanges(const circuit::SmSchedule &base,
              const std::vector<VerifyTask> &tasks, std::size_t rounds,
              const sim::NoiseModel &noise, std::size_t threads,
              VerifyStats *stats)
{
    // Group by (basis, candidate schedule) in order of first appearance.
    // The schedule hash only picks the bucket; membership is decided by
    // exact comparison.
    struct Group
    {
        circuit::SmSchedule schedule;
        std::vector<std::size_t> tasks;
    };
    std::vector<Group> groups;
    std::unordered_map<uint64_t, std::vector<std::size_t>> buckets;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        circuit::SmSchedule candidate = tasks[i].change->apply(base);
        uint64_t key = circuit::hashSchedule(candidate) ^
                       (tasks[i].basis == circuit::MemoryBasis::X);
        std::vector<std::size_t> &bucket = buckets[key];
        auto same = [&](std::size_t g) {
            return tasks[groups[g].tasks.front()].basis == tasks[i].basis &&
                   groups[g].schedule == candidate;
        };
        auto it = std::find_if(bucket.begin(), bucket.end(), same);
        if (it != bucket.end()) {
            groups[*it].tasks.push_back(i);
        } else {
            bucket.push_back(groups.size());
            groups.push_back({std::move(candidate), {i}});
        }
    }

    // One job per group; each job writes only its own tasks' slots and its
    // own counters, so the output is the same for every thread count.
    std::vector<std::optional<VerifiedChange>> results(tasks.size());
    std::vector<VerifyStats> group_stats(groups.size());
    sim::parallelFor(groups.size(), threads, [&](std::size_t g) {
        verifyGroup(groups[g].schedule, tasks, groups[g].tasks, rounds,
                    noise, results, group_stats[g]);
    });
    if (stats != nullptr) {
        for (const VerifyStats &s : group_stats) {
            *stats += s;
        }
    }
    return results;
}

} // namespace prophunt::core

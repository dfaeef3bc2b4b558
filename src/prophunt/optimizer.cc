#include "prophunt/optimizer.h"

#include <algorithm>
#include <optional>
#include <map>
#include <set>

#include "sim/dem_builder.h"
#include "sim/parallel_sampler.h"

namespace prophunt::core {

namespace {

using sim::parallelFor;

/**
 * Ambiguous subgraphs sampled from one DEM, deduplicated.
 *
 * Deterministic for every thread count: each sample index owns an
 * independent RNG stream, blocks of kSampleBlock indices are sampled in
 * parallel, and results merge (dedup + max_keep cutoff) serially in
 * index order. Early exit happens at block granularity, so the kept set
 * is a pure function of (seed, samples, max_keep).
 */
std::vector<Subgraph>
sampleAmbiguous(const sim::Dem &dem, std::size_t samples,
                std::size_t max_errors, std::size_t max_keep,
                std::size_t threads, uint64_t seed)
{
    constexpr std::size_t kSampleBlock = 32;
    SubgraphFinder finder(dem);
    std::vector<Subgraph> found;
    std::set<std::vector<uint32_t>> seen;
    std::vector<std::optional<Subgraph>> block(kSampleBlock);

    for (std::size_t base = 0;
         base < samples && found.size() < max_keep; base += kSampleBlock) {
        std::size_t count = std::min(kSampleBlock, samples - base);
        parallelFor(count, threads, [&](std::size_t i) {
            sim::Rng rng(seed ^
                         ((base + i + 1) * 0x517cc1b727220a95ULL));
            Subgraph sg = finder.sample(rng, max_errors);
            block[i] = sg.ambiguous ? std::optional<Subgraph>(std::move(sg))
                                    : std::nullopt;
        });
        for (std::size_t i = 0; i < count && found.size() < max_keep;
             ++i) {
            if (!block[i]) {
                continue;
            }
            std::vector<uint32_t> key = block[i]->detectors;
            std::sort(key.begin(), key.end());
            if (seen.insert(std::move(key)).second) {
                found.push_back(std::move(*block[i]));
            }
        }
    }
    return found;
}

} // namespace

OptimizeResult
PropHunt::optimize(const circuit::SmSchedule &start,
                   std::size_t rounds) const
{
    OptimizeResult result;
    result.snapshots.push_back(start);
    circuit::SmSchedule current = start;
    std::size_t threads = sim::resolveThreads(opts_.threads);
    sim::NoiseModel noise = sim::NoiseModel::uniform(opts_.p);
    sim::Rng rng(opts_.seed);
    std::size_t stalled = 0;

    for (std::size_t iter = 0; iter < opts_.iterations; ++iter) {
        IterationRecord rec;
        rec.iteration = iter;

        struct BasisWork
        {
            circuit::MemoryBasis basis;
            circuit::SmCircuit circ;
            sim::Dem dem;
            std::vector<Subgraph> subgraphs;
        };
        std::vector<BasisWork> work;
        for (auto basis :
             {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
            BasisWork w;
            w.basis = basis;
            w.circ = circuit::buildMemoryCircuit(current, rounds, basis);
            w.dem = sim::buildDem(w.circ, noise);
            w.subgraphs = sampleAmbiguous(
                w.dem, opts_.samplesPerIteration / 2,
                opts_.maxSubgraphErrors, opts_.maxAmbiguousPerIteration,
                threads, opts_.seed ^ (iter * 2654435761u) ^
                             (basis == circuit::MemoryBasis::X ? 0xabcdu
                                                               : 0));
            rec.ambiguousFound += w.subgraphs.size();
            work.push_back(std::move(w));
        }

        // Solve each ambiguous subgraph and enumerate+verify candidates.
        struct SubgraphPlan
        {
            const BasisWork *bw;
            const Subgraph *sg;
            MinWeightResult mw;
            std::vector<CircuitChange> candidates;
            std::vector<VerifiedChange> verified;
        };
        std::vector<SubgraphPlan> plans;
        for (const BasisWork &bw : work) {
            for (const Subgraph &sg : bw.subgraphs) {
                plans.push_back({&bw, &sg, {}, {}, {}});
            }
        }
        parallelFor(plans.size(), threads, [&](std::size_t i) {
            plans[i].mw =
                solveMinWeightLogical(plans[i].bw->dem, *plans[i].sg,
                                      opts_.maxCost,
                                      opts_.satTimeoutSeconds);
        });
        for (SubgraphPlan &plan : plans) {
            rec.solveStats.push_back(plan.mw.stats);
            if (plan.mw.found) {
                rec.solveWeights.push_back(plan.mw.weight);
                rec.minLogicalWeight =
                    std::min(rec.minLogicalWeight, plan.mw.weight);
            }
        }

        // Candidate enumeration (cheap, serial for RNG determinism).
        for (SubgraphPlan &plan : plans) {
            if (!plan.mw.found || plan.mw.weight == 0) {
                continue;
            }
            plan.candidates = enumerateChanges(
                current, plan.bw->dem, plan.bw->circ, plan.mw.errors, rng);
            rec.candidatesEnumerated += plan.candidates.size();
        }

        // Verification in parallel. Results land in per-task slots and
        // are collected in task order, so the verified lists are
        // identical for every thread count.
        std::vector<SubgraphPlan *> task_plans;
        std::vector<VerifyTask> tasks;
        for (SubgraphPlan &plan : plans) {
            for (const CircuitChange &ch : plan.candidates) {
                task_plans.push_back(&plan);
                tasks.push_back({&ch, plan.bw->basis, &plan.sg->detectors,
                                 &plan.mw.errors, &plan.bw->dem});
            }
        }
        std::vector<std::optional<VerifiedChange>> taskResults;
        if (opts_.verifyAmbiguityRemoval) {
            VerifyStats stats;
            taskResults =
                verifyChanges(current, tasks, rounds, noise, threads, &stats);
            rec.candidateSchedules = stats.candidateSchedules;
            rec.precheckRejected = stats.precheckRejected;
            rec.fullDemBuilds = stats.fullDemBuilds;
        } else {
            taskResults.resize(tasks.size());
            parallelFor(tasks.size(), threads, [&](std::size_t i) {
                // Ablated pruning: only circuit validity is checked.
                circuit::SmSchedule cand = tasks[i].change->apply(current);
                if (!cand.commutationValid()) {
                    return;
                }
                if (auto ts = cand.computeTimesteps()) {
                    taskResults[i] = VerifiedChange{*tasks[i].change,
                                                    std::move(cand),
                                                    ts->depth};
                }
            });
        }
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            if (taskResults[i]) {
                task_plans[i]->verified.push_back(
                    std::move(*taskResults[i]));
            }
        }

        // Apply: one change per subgraph, minimum depth first.
        std::set<std::string> applied_keys;
        for (SubgraphPlan &plan : plans) {
            if (plan.verified.empty()) {
                continue;
            }
            rec.changesVerified += plan.verified.size();
            if (opts_.preferMinDepth) {
                // stable: depth ties keep deterministic task order.
                std::stable_sort(plan.verified.begin(), plan.verified.end(),
                          [](const VerifiedChange &a,
                             const VerifiedChange &b) {
                              return a.depth < b.depth;
                          });
            }
            for (const VerifiedChange &vc : plan.verified) {
                if (applied_keys.count(vc.change.key())) {
                    break; // already applied for another subgraph
                }
                // Re-validate against the *current* schedule (a previously
                // applied change may interact). The depth cap is checked
                // here, on the schedule the change lands on: vc.depth was
                // measured on the iteration's start schedule.
                circuit::SmSchedule next = vc.change.apply(current);
                if (!next.commutationValid()) {
                    continue;
                }
                auto ts = next.computeTimesteps();
                if (!ts ||
                    (opts_.maxDepth != 0 && ts->depth > opts_.maxDepth)) {
                    continue; // cyclic, or over the depth budget
                }
                current = std::move(next);
                applied_keys.insert(vc.change.key());
                ++rec.changesApplied;
                break;
            }
        }

        rec.depth = current.depth();
        bool no_ambiguity = rec.ambiguousFound == 0;
        bool no_progress = rec.changesApplied == 0;
        result.history.push_back(std::move(rec));
        result.snapshots.push_back(current);
        if (no_ambiguity) {
            break; // converged: no ambiguity found within the budget
        }
        if (no_progress) {
            ++stalled;
            if (stalled >= 3) {
                break; // ambiguity persists but is unresolvable (d_eff = d)
            }
        } else {
            stalled = 0;
        }
    }
    return result;
}

std::size_t
estimateEffectiveDistance(const circuit::SmSchedule &schedule,
                          std::size_t rounds, double p, std::size_t samples,
                          uint64_t seed)
{
    sim::NoiseModel noise = sim::NoiseModel::uniform(p);
    std::size_t best = std::numeric_limits<std::size_t>::max();
    std::size_t threads = sim::resolveThreads(0);
    for (auto basis : {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
        circuit::SmCircuit circ =
            circuit::buildMemoryCircuit(schedule, rounds, basis);
        sim::Dem dem = sim::buildDem(circ, noise);
        std::vector<Subgraph> sgs = sampleAmbiguous(
            dem, samples / 2, 64, 16, threads,
            seed ^ (basis == circuit::MemoryBasis::X ? 0x5555u : 0));
        for (const Subgraph &sg : sgs) {
            MinWeightResult mw = solveMinWeightLogical(dem, sg, 16, 10.0);
            if (mw.found) {
                best = std::min(best, mw.weight);
            }
        }
    }
    return best;
}

} // namespace prophunt::core

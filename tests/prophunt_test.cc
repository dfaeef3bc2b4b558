/**
 * @file
 * Tests for the PropHunt core: subgraph finding, ambiguity, min-weight
 * MaxSAT solving, change enumeration, pruning, and the optimizer loop.
 */
#include <gtest/gtest.h>

#include <memory>

#include "api/engine.h"
#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "prophunt/optimizer.h"
#include "sim/dem_builder.h"

using namespace prophunt;
using namespace prophunt::core;

namespace {

struct Harness
{
    circuit::SmSchedule sched;
    circuit::SmCircuit circ;
    sim::Dem dem;
};

Harness
build(const circuit::SmSchedule &s, std::size_t rounds, double p,
      circuit::MemoryBasis basis)
{
    Harness out{s, circuit::buildMemoryCircuit(s, rounds, basis), {}};
    out.dem = sim::buildDem(out.circ, sim::NoiseModel::uniform(p));
    return out;
}

} // namespace

TEST(Subgraph, InteriorErrorsAreContained)
{
    code::SurfaceCode s(3);
    Harness st =
        build(circuit::nzSchedule(s), 3, 1e-3, circuit::MemoryBasis::Z);
    SubgraphFinder finder(st.dem);
    sim::Rng rng(1);
    for (int trial = 0; trial < 30; ++trial) {
        Subgraph sg = finder.sample(rng, 24);
        std::set<uint32_t> dets(sg.detectors.begin(), sg.detectors.end());
        for (uint32_t e : sg.errors) {
            for (uint32_t d : st.dem.errors[e].detectors) {
                EXPECT_TRUE(dets.count(d))
                    << "interior error leaks outside the subgraph";
            }
        }
    }
}

TEST(Subgraph, AmbiguityMatchesRowspaceDefinition)
{
    code::SurfaceCode s(3);
    Harness st = build(circuit::poorSurfaceSchedule(s), 3, 1e-3,
                     circuit::MemoryBasis::Z);
    SubgraphFinder finder(st.dem);
    sim::Rng rng(7);
    bool found_ambiguous = false;
    for (int trial = 0; trial < 50 && !found_ambiguous; ++trial) {
        Subgraph sg = finder.sample(rng, 32);
        // Re-check the returned flag against the definition.
        EXPECT_EQ(sg.ambiguous,
                  hasAmbiguity(st.dem, sg.detectors, sg.errors));
        found_ambiguous |= sg.ambiguous;
    }
    EXPECT_TRUE(found_ambiguous)
        << "poor d=3 schedule must contain ambiguity";
}

TEST(MinWeight, SubgraphSolutionIsUndetectedLogical)
{
    code::SurfaceCode s(3);
    Harness st = build(circuit::poorSurfaceSchedule(s), 3, 1e-3,
                     circuit::MemoryBasis::Z);
    SubgraphFinder finder(st.dem);
    sim::Rng rng(3);
    for (int trial = 0; trial < 60; ++trial) {
        Subgraph sg = finder.sample(rng, 32);
        if (!sg.ambiguous) {
            continue;
        }
        MinWeightResult mw = solveMinWeightLogical(st.dem, sg, 12, 10.0);
        ASSERT_TRUE(mw.found);
        EXPECT_EQ(mw.errors.size(), mw.weight);
        EXPECT_GE(mw.weight, 1u);
        // XOR of detector signatures is zero; observables flip.
        std::vector<int> det_par(st.dem.numDetectors, 0);
        std::vector<int> obs_par(st.dem.numObservables, 0);
        for (uint32_t e : mw.errors) {
            for (uint32_t d : st.dem.errors[e].detectors) {
                det_par[d] ^= 1;
            }
            for (uint32_t o : st.dem.errors[e].observables) {
                obs_par[o] ^= 1;
            }
        }
        for (int v : det_par) {
            EXPECT_EQ(v, 0);
        }
        int flipped = 0;
        for (int v : obs_par) {
            flipped += v;
        }
        EXPECT_GE(flipped, 1);
        return;
    }
    FAIL() << "no ambiguous subgraph found";
}

TEST(MinWeight, GlobalFindsEffectiveDistance)
{
    // d=3 with the good schedule: min undetected logical error needs 3
    // faults; the poor schedule drops this to 2.
    code::SurfaceCode s(3);
    Harness good =
        build(circuit::nzSchedule(s), 3, 1e-3, circuit::MemoryBasis::Z);
    MinWeightResult mg = solveGlobalMinWeight(good.dem, 6, 60.0);
    ASSERT_TRUE(mg.found);
    EXPECT_EQ(mg.weight, 3u);

    Harness poor = build(circuit::poorSurfaceSchedule(s), 3, 1e-3,
                       circuit::MemoryBasis::Z);
    MinWeightResult mp = solveGlobalMinWeight(poor.dem, 6, 60.0);
    ASSERT_TRUE(mp.found);
    EXPECT_EQ(mp.weight, 2u);
}

TEST(EffectiveDistance, SubgraphEstimateMatchesGlobal)
{
    code::SurfaceCode s(3);
    std::size_t good = estimateEffectiveDistance(circuit::nzSchedule(s), 3,
                                                 1e-3, 200, 5);
    std::size_t poor = estimateEffectiveDistance(
        circuit::poorSurfaceSchedule(s), 3, 1e-3, 200, 5);
    EXPECT_EQ(good, 3u);
    EXPECT_EQ(poor, 2u);
}

TEST(Changes, EnumerationProducesApplicableCandidates)
{
    code::SurfaceCode s(3);
    Harness st = build(circuit::poorSurfaceSchedule(s), 3, 1e-3,
                     circuit::MemoryBasis::Z);
    SubgraphFinder finder(st.dem);
    sim::Rng rng(11);
    for (int trial = 0; trial < 80; ++trial) {
        Subgraph sg = finder.sample(rng, 32);
        if (!sg.ambiguous) {
            continue;
        }
        MinWeightResult mw = solveMinWeightLogical(st.dem, sg, 12, 10.0);
        if (!mw.found) {
            continue;
        }
        auto changes =
            enumerateChanges(st.sched, st.dem, st.circ, mw.errors, rng);
        EXPECT_GT(changes.size(), 0u);
        for (const auto &ch : changes) {
            // Applying must not throw; validity may legitimately fail.
            circuit::SmSchedule modified = ch.apply(st.sched);
            (void)modified.commutationValid();
            EXPECT_FALSE(ch.key().empty());
        }
        return;
    }
    FAIL() << "no solvable ambiguous subgraph";
}

TEST(Changes, KeysAreUnique)
{
    code::SurfaceCode s(3);
    Harness st = build(circuit::poorSurfaceSchedule(s), 3, 1e-3,
                     circuit::MemoryBasis::Z);
    SubgraphFinder finder(st.dem);
    sim::Rng rng(13);
    for (int trial = 0; trial < 80; ++trial) {
        Subgraph sg = finder.sample(rng, 32);
        if (!sg.ambiguous) {
            continue;
        }
        MinWeightResult mw = solveMinWeightLogical(st.dem, sg, 12, 10.0);
        if (!mw.found) {
            continue;
        }
        auto changes =
            enumerateChanges(st.sched, st.dem, st.circ, mw.errors, rng);
        std::set<std::string> keys;
        for (const auto &ch : changes) {
            EXPECT_TRUE(keys.insert(ch.key()).second);
        }
        return;
    }
    FAIL() << "no solvable ambiguous subgraph";
}

TEST(Pruning, VerifiedChangeResolvesAmbiguity)
{
    code::SurfaceCode s(3);
    Harness st = build(circuit::poorSurfaceSchedule(s), 3, 1e-3,
                     circuit::MemoryBasis::Z);
    SubgraphFinder finder(st.dem);
    sim::Rng rng(17);
    sim::NoiseModel noise = sim::NoiseModel::uniform(1e-3);
    for (int trial = 0; trial < 120; ++trial) {
        Subgraph sg = finder.sample(rng, 32);
        if (!sg.ambiguous) {
            continue;
        }
        MinWeightResult mw = solveMinWeightLogical(st.dem, sg, 12, 10.0);
        if (!mw.found) {
            continue;
        }
        auto changes =
            enumerateChanges(st.sched, st.dem, st.circ, mw.errors, rng);
        for (const auto &ch : changes) {
            auto vc = verifyChange(st.sched, ch, sg.detectors, mw.errors,
                                   st.dem, 3, circuit::MemoryBasis::Z,
                                   noise);
            if (!vc) {
                continue;
            }
            // Verified change: re-check independently that ambiguity is
            // gone on the original detector set.
            circuit::SmCircuit circ2 = circuit::buildMemoryCircuit(
                vc->schedule, 3, circuit::MemoryBasis::Z);
            sim::Dem dem2 = sim::buildDem(circ2, noise);
            auto interior = interiorErrors(dem2, sg.detectors);
            EXPECT_FALSE(hasAmbiguity(dem2, sg.detectors, interior));
            EXPECT_TRUE(vc->schedule.commutationValid());
            EXPECT_TRUE(vc->schedule.schedulable());
            return;
        }
    }
    GTEST_SKIP() << "no verifiable change found in the budget";
}

TEST(Optimizer, ImprovesPoorD3Schedule)
{
    code::SurfaceCode s(3);
    PropHuntOptions opts;
    opts.iterations = 6;
    opts.samplesPerIteration = 150;
    opts.seed = 3;
    opts.threads = 1; // One sampling worker: machine-independent trajectory.
    PropHunt tool(opts);
    OptimizeResult res = tool.optimize(circuit::poorSurfaceSchedule(s), 3);
    ASSERT_FALSE(res.history.empty());
    // The effective distance must recover from 2 to 3.
    std::size_t final_deff =
        estimateEffectiveDistance(res.finalSchedule(), 3, 1e-3, 300, 9);
    EXPECT_EQ(final_deff, 3u);
    // Snapshots include the input and one per iteration.
    EXPECT_EQ(res.snapshots.size(), res.history.size() + 1);
    EXPECT_TRUE(res.finalSchedule().commutationValid());
    EXPECT_TRUE(res.finalSchedule().schedulable());
}

TEST(Optimizer, ThreadCountDoesNotChangeTrajectory)
{
    // Subgraph sampling and candidate verification are per-index
    // deterministic, so the worker count must not change a single
    // decision, nor the verification work counters. With 4 threads,
    // verification also runs concurrent per-schedule sweeps and DEM
    // merges on the shared pool.
    code::SurfaceCode s(3);
    auto run = [&](std::size_t threads) {
        PropHuntOptions opts;
        opts.iterations = 6;
        opts.samplesPerIteration = 150;
        opts.seed = 3;
        opts.threads = threads;
        return PropHunt(opts).optimize(circuit::poorSurfaceSchedule(s), 3);
    };
    OptimizeResult serial = run(1);
    OptimizeResult parallel = run(4);
    ASSERT_FALSE(serial.history.empty());
    ASSERT_EQ(serial.history.size(), parallel.history.size());
    std::size_t applied = 0, schedules = 0;
    for (std::size_t i = 0; i < serial.history.size(); ++i) {
        const IterationRecord &a = serial.history[i];
        const IterationRecord &b = parallel.history[i];
        EXPECT_EQ(a.candidatesEnumerated, b.candidatesEnumerated) << i;
        EXPECT_EQ(a.changesVerified, b.changesVerified) << i;
        EXPECT_EQ(a.changesApplied, b.changesApplied) << i;
        EXPECT_EQ(a.candidateSchedules, b.candidateSchedules) << i;
        EXPECT_EQ(a.precheckRejected, b.precheckRejected) << i;
        EXPECT_EQ(a.fullDemBuilds, b.fullDemBuilds) << i;
        applied += a.changesApplied;
        schedules += a.candidateSchedules;
        // Each distinct schedule is swept once and merged at most once.
        EXPECT_LE(a.candidateSchedules, a.candidatesEnumerated) << i;
        EXPECT_LE(a.fullDemBuilds, a.candidateSchedules) << i;
        EXPECT_LE(a.changesVerified + a.precheckRejected,
                  a.candidatesEnumerated)
            << i;
    }
    EXPECT_GT(applied, 0u) << "the poor schedule must be changed";
    EXPECT_GT(schedules, 0u);
    EXPECT_EQ(api::hashSchedule(serial.finalSchedule()),
              api::hashSchedule(parallel.finalSchedule()));
}

TEST(Optimizer, RecordsSolveTelemetry)
{
    code::SurfaceCode s(3);
    PropHuntOptions opts;
    opts.iterations = 2;
    opts.samplesPerIteration = 100;
    opts.seed = 5;
    opts.threads = 1; // One sampling worker: machine-independent trajectory.
    PropHunt tool(opts);
    OptimizeResult res =
        tool.optimize(circuit::poorSurfaceSchedule(s), 3);
    ASSERT_FALSE(res.history.empty());
    const auto &rec = res.history[0];
    EXPECT_GT(rec.ambiguousFound, 0u);
    EXPECT_FALSE(rec.solveStats.empty());
    for (const auto &st : rec.solveStats) {
        EXPECT_GT(st.variables, 0u);
        EXPECT_GT(st.hardClauses, 0u);
        EXPECT_GT(st.softClauses, 0u);
    }
}

TEST(Optimizer, ConvergesOnAlreadyGoodSchedule)
{
    // The N-Z schedule has d_eff = d; PropHunt should find little or no
    // low-weight ambiguity within a small expansion budget and terminate
    // without breaking the schedule.
    code::SurfaceCode s(3);
    PropHuntOptions opts;
    opts.iterations = 3;
    opts.samplesPerIteration = 100;
    opts.maxSubgraphErrors = 20;
    opts.seed = 11;
    opts.threads = 1; // One sampling worker: machine-independent trajectory.
    PropHunt tool(opts);
    OptimizeResult res = tool.optimize(circuit::nzSchedule(s), 3);
    std::size_t deff =
        estimateEffectiveDistance(res.finalSchedule(), 3, 1e-3, 300, 13);
    EXPECT_EQ(deff, 3u);
}

TEST(Optimizer, DepthCapHoldsOnEverySnapshot)
{
    // maxDepth bounds the schedule a change lands on, not the one the
    // iteration started from: a change applied after others in the same
    // iteration can deepen the circuit past the cap. Surface d=5 from a
    // seeded random coloration with fig12's cap (start depth + 4).
    auto s5 = std::make_shared<const code::CssCode>(code::benchmarkSurface(5));
    circuit::SmSchedule start = circuit::randomColorationSchedule(s5, 1);
    ASSERT_EQ(start.depth(), 9u);
    PropHuntOptions opts;
    opts.iterations = 3;
    opts.samplesPerIteration = 100;
    opts.seed = 1025;
    opts.satTimeoutSeconds = 60.0;
    opts.threads = 2;
    opts.maxDepth = 13;
    OptimizeResult res = PropHunt(opts).optimize(start, 5);
    ASSERT_FALSE(res.history.empty());
    std::size_t applied = 0;
    for (const IterationRecord &rec : res.history) {
        EXPECT_LE(rec.depth, opts.maxDepth) << "iteration " << rec.iteration;
        applied += rec.changesApplied;
    }
    EXPECT_GT(applied, 0u);
    for (std::size_t i = 0; i < res.snapshots.size(); ++i) {
        EXPECT_LE(res.snapshots[i].depth(), opts.maxDepth) << "snapshot " << i;
    }
}

TEST(Optimizer, GoldenTrajectories)
{
    // Pinned trajectories of two seeded runs: the final schedule hash and
    // every iteration's counts. Verification may get faster, but it must
    // not change a single verdict, so none of these may move.
    struct Golden
    {
        std::size_t ambiguousFound;
        std::size_t candidatesEnumerated;
        std::size_t changesVerified;
        std::size_t changesApplied;
    };
    auto check = [](const OptimizeResult &res, uint64_t hash,
                    const std::vector<Golden> &want, const char *label) {
        ASSERT_EQ(res.history.size(), want.size()) << label;
        for (std::size_t i = 0; i < want.size(); ++i) {
            const IterationRecord &rec = res.history[i];
            EXPECT_EQ(rec.ambiguousFound, want[i].ambiguousFound)
                << label << " iteration " << i;
            EXPECT_EQ(rec.candidatesEnumerated, want[i].candidatesEnumerated)
                << label << " iteration " << i;
            EXPECT_EQ(rec.changesVerified, want[i].changesVerified)
                << label << " iteration " << i;
            EXPECT_EQ(rec.changesApplied, want[i].changesApplied)
                << label << " iteration " << i;
        }
        EXPECT_EQ(api::hashSchedule(res.finalSchedule()), hash) << label;
    };

    code::SurfaceCode s3(3);
    PropHuntOptions poor;
    poor.iterations = 6;
    poor.samplesPerIteration = 150;
    poor.seed = 3;
    poor.threads = 2;
    check(PropHunt(poor).optimize(circuit::poorSurfaceSchedule(s3), 3),
          14089246124873927371ull,
          {{16, 256, 22, 4},
           {16, 218, 6, 3},
           {16, 269, 2, 2},
           {16, 276, 3, 3},
           {16, 308, 3, 3},
           {16, 223, 4, 2}},
          "surface3 poor");

    auto s5 = std::make_shared<const code::CssCode>(code::benchmarkSurface(5));
    PropHuntOptions col;
    col.iterations = 2;
    col.samplesPerIteration = 200;
    col.seed = 1;
    col.threads = 2;
    check(PropHunt(col).optimize(circuit::colorationSchedule(s5), 5),
          311334371332238106ull, {{16, 545, 18, 8}, {16, 632, 6, 4}},
          "surface5 coloration");
}

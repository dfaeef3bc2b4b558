/**
 * @file
 * Figure 14: scaling of the ambiguous-subgraph MaxSAT formulation.
 *
 * Collects per-solve statistics from PropHunt runs (subgraph solves are
 * bucketed by the weight of the found logical error, which tracks the
 * growing effective distance during optimization) and reports model size
 * and solve-time distributions per d_eff.
 *
 * The default run is CI-safe: d=3 and d=5 surface codes at reduced
 * budgets. PROPHUNT_FULL restores the paper-scale sweep (d=7 and the
 * rqt60 LDPC code, 25 iterations x 500 samples, 16 ambiguous subgraphs
 * per iteration); PROPHUNT_ITERS / PROPHUNT_SAMPLES still override
 * either mode.
 */
#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"

using namespace prophunt;

namespace {

struct Bucket
{
    std::size_t count = 0;
    double timeMin = 1e300, timeMax = 0, timeSum = 0;
    std::size_t varsSum = 0, clausesSum = 0;
};

void
runCode(const code::CssCode &code, std::size_t distance,
        const circuit::SmSchedule &start, const char *label)
{
    bool full = phbench::config().full;
    core::PropHuntOptions opts = phbench::defaultOptions(17);
    if (full) {
        // Paper-scale budgets unless the env overrides them explicitly.
        opts.iterations = api::envSize("PROPHUNT_ITERS", 25);
        opts.samplesPerIteration = api::envSize("PROPHUNT_SAMPLES", 500);
    }
    opts.maxAmbiguousPerIteration = full ? 16 : 8;
    core::PropHunt tool(opts);
    core::OptimizeResult res = tool.optimize(start, distance);

    std::map<std::size_t, Bucket> buckets;
    for (const auto &rec : res.history) {
        for (std::size_t i = 0; i < rec.solveWeights.size(); ++i) {
            const auto &st = rec.solveStats[i];
            Bucket &b = buckets[rec.solveWeights[i]];
            ++b.count;
            b.timeMin = std::min(b.timeMin, st.wallSeconds);
            b.timeMax = std::max(b.timeMax, st.wallSeconds);
            b.timeSum += st.wallSeconds;
            b.varsSum += st.variables;
            b.clausesSum += st.hardClauses;
        }
    }
    std::printf("\n--- %s (%s) ---\n", code.name().c_str(), label);
    std::printf("%6s %7s %10s %12s %12s %12s %12s\n", "d_eff", "solves",
                "vars(avg)", "clauses(avg)", "t_min(s)", "t_avg(s)",
                "t_max(s)");
    for (const auto &[weight, b] : buckets) {
        std::printf("%6zu %7zu %10zu %12zu %12.4f %12.4f %12.4f\n", weight,
                    b.count, b.varsSum / b.count, b.clausesSum / b.count,
                    b.timeMin, b.timeSum / b.count, b.timeMax);
    }
}

} // namespace

static void
BM_SubgraphSampling(benchmark::State &state)
{
    code::SurfaceCode s(5);
    auto circ = circuit::buildMemoryCircuit(
        circuit::poorSurfaceSchedule(s), 5, circuit::MemoryBasis::Z);
    sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(1e-3));
    core::SubgraphFinder finder(dem);
    sim::Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(finder.sample(rng, 48));
    }
}
BENCHMARK(BM_SubgraphSampling)->Unit(benchmark::kMicrosecond);

int
main(int argc, char **argv)
{
    std::printf("=== Figure 14: subgraph MaxSAT scaling during "
                "optimization ===\n");
    std::printf("Expected shape: model size and solve time grow with "
                "d_eff; d_eff saturates at the code distance.\n");
    {
        code::SurfaceCode s(3);
        runCode(s.code(), 3, circuit::poorSurfaceSchedule(s),
                "poor start");
    }
    {
        code::SurfaceCode s(5);
        runCode(s.code(), 5, circuit::poorSurfaceSchedule(s),
                "poor start");
    }
    if (phbench::config().full) {
        {
            code::SurfaceCode s(7);
            runCode(s.code(), 7, circuit::poorSurfaceSchedule(s),
                    "poor start");
        }
        {
            auto c = code::benchmarkRqt60();
            auto cp = std::make_shared<const code::CssCode>(c);
            runCode(c, 6, circuit::colorationSchedule(cp),
                    "coloration start");
        }
    } else {
        std::printf("\n(reduced run: d=7 and rqt60 need PROPHUNT_FULL)\n");
    }
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

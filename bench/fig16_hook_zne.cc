/**
 * @file
 * Figure 16: Hook-ZNE.
 *
 * (a) Noise amplification range at fixed code distance: the logical error
 *     rates realizable by intermediate SM circuits (modeled as fractional
 *     effective distances under suppression factor Lambda) against the
 *     coarse odd-integer ladder available to DS-ZNE; plus a measured
 *     ladder from actual PropHunt intermediate circuits on a d=3 surface
 *     code.
 * (b) Bias comparison between DS-ZNE and Hook-ZNE under the paper's
 *     setup: Lambda=2, RB depth 50, a 20000-shot total budget, three
 *     distance ranges.
 */
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "zne/zne.h"

using namespace prophunt;

namespace {

void
figure16a()
{
    std::printf("--- (a) noise amplification at fixed d=13 ---\n");
    std::printf("%8s | fine Hook-ZNE noise scales (x = effective "
                "distance steps of 0.5)\n",
                "Lambda");
    for (double lam : {1.5, 2.14, 3.0, 4.0}) {
        std::printf("%8.2f |", lam);
        double base = zne::logicalErrorRate(lam, 13.0);
        for (double d = 13.0; d >= 10.0; d -= 0.5) {
            std::printf(" %7.2f", zne::logicalErrorRate(lam, d) / base);
        }
        std::printf("\n");
    }
    std::printf("%8s |", "DS-ZNE");
    double base = zne::logicalErrorRate(2.0, 13.0);
    for (double d : {13.0, 11.0, 9.0, 7.0}) {
        std::printf(" %7.1f", zne::logicalErrorRate(2.0, d) / base);
    }
    std::printf("   (Lambda=2: coarse jumps of 2x per distance step)\n");

    // Measured ladder: LERs of intermediate schedules from a PropHunt run
    // on the d=3 surface code, normalized to the optimized end point.
    code::SurfaceCode s(3);
    // Gentle optimization settings: fewer samples per iteration slow the
    // convergence and expose more intermediate noise levels (Section 7).
    core::PropHuntOptions opts = phbench::defaultOptions(23);
    opts.iterations = 8;
    opts.samplesPerIteration = 40;
    opts.maxAmbiguousPerIteration = 2;
    core::PropHunt tool(opts);
    core::OptimizeResult res =
        tool.optimize(circuit::poorSurfaceSchedule(s), 3);
    std::printf("measured intermediate-circuit ladder (d=3, p=2e-3, "
                "normalized):");
    // Iterations that apply no change repeat a snapshot; combinedLers
    // scores each distinct schedule once.
    std::vector<double> lers = phbench::combinedLers(
        res.snapshots, 3, 2e-3, "union_find", phbench::shots(), 31);
    double end = lers.back() > 0 ? lers.back() : 1e-6;
    for (double l : lers) {
        std::printf(" %.2f", l / end);
    }
    std::printf("\n\n");
}

void
figure16b()
{
    std::printf("--- (b) bias: DS-ZNE vs Hook-ZNE (Lambda=2, depth 50, "
                "20000 shots, 200 trials) ---\n");
    zne::ZneConfig cfg;
    cfg.lambdaSuppression = 2.0;
    cfg.depth = 50;
    cfg.totalShots = 20000;
    std::size_t trials = phbench::config().zneTrials;
    std::printf("%16s %12s %12s %10s\n", "distance range", "DS-ZNE",
                "Hook-ZNE", "ratio");
    for (double dmax : {13.0, 11.0, 9.0}) {
        double ds = zne::zneBias(zne::dsZneDistances(dmax), cfg, trials,
                                 901);
        double hook = zne::zneBias(zne::hookZneDistances(dmax), cfg,
                                   trials, 901);
        std::printf("%10.0f..%-4.0f %12.5f %12.5f %9.2fx\n",
                    dmax - 6.0, dmax, ds, hook, hook > 0 ? ds / hook : 0);
    }
    std::printf("Expected shape: Hook-ZNE bias 3x-6x below DS-ZNE in "
                "every range.\n\n");
}

} // namespace

static void
BM_ZneEstimate(benchmark::State &state)
{
    zne::ZneConfig cfg;
    cfg.totalShots = 20000;
    sim::Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            zne::zneEstimate(zne::hookZneDistances(13.0), cfg, rng));
    }
}
BENCHMARK(BM_ZneEstimate)->Unit(benchmark::kMicrosecond);

int
main(int argc, char **argv)
{
    std::printf("=== Figure 16: Hook-ZNE ===\n");
    figure16a();
    figure16b();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

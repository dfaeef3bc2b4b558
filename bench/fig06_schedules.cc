/**
 * @file
 * Figure 6: good vs poor CNOT schedule for the d=3 surface code.
 *
 * Reproduces the motivating comparison: the hand-designed 'N-Z' schedule
 * against the swapped (poor) schedule, as LER vs physical error rate,
 * plus the effective distances (3 vs 2) explaining the gap.
 */
#include <benchmark/benchmark.h>

#include "bench_common.h"

using namespace prophunt;

static void
BM_MemoryLerD3(benchmark::State &state)
{
    code::SurfaceCode s(3);
    circuit::SmSchedule nz = circuit::nzSchedule(s);
    // A fresh seed per iteration, so each timed run decodes a new sample
    // stream rather than the same shots every time.
    uint64_t seed = 5;
    for (auto _ : state) {
        benchmark::DoNotOptimize(phbench::combinedLer(
            nz, 3, 3e-3, "union_find", 2000, seed++));
    }
}
BENCHMARK(BM_MemoryLerD3)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    std::size_t n_shots = phbench::shots();
    code::SurfaceCode s(3);
    circuit::SmSchedule good = circuit::nzSchedule(s);
    circuit::SmSchedule poor = circuit::poorSurfaceSchedule(s);

    std::printf("=== Figure 6: good vs poor schedule, d=3 surface code "
                "===\n");
    std::printf("d_eff: good=%zu poor=%zu\n",
                core::estimateEffectiveDistance(good, 3, 1e-3, 300, 3),
                core::estimateEffectiveDistance(poor, 3, 1e-3, 300, 3));
    std::printf("%10s %14s %14s %8s\n", "p", "LER(good)", "LER(poor)",
                "ratio");
    for (double p : {1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2}) {
        double lg = phbench::combinedLer(
            good, 3, p, "union_find", n_shots, 13);
        double lp = phbench::combinedLer(
            poor, 3, p, "union_find", n_shots, 13);
        std::printf("%10.4f %14.5f %14.5f %8.2f\n", p, lg, lp,
                    lg > 0 ? lp / lg : 0.0);
    }
    std::printf("Expected shape: poor/good ratio > 1 and growing as p "
                "falls (d_eff 2 vs 3).\n\n");

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

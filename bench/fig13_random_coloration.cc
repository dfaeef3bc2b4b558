/**
 * @file
 * Figure 13: robustness of PropHunt across random coloration starts.
 *
 * Three different random coloration circuits per code; the bar chart of
 * the paper becomes min/max ranges of starting and ending LER at a fixed
 * physical error rate. PropHunt must consistently improve the input.
 */
#include <benchmark/benchmark.h>

#include "bench_common.h"

using namespace prophunt;

namespace {

void
runCode(const code::CssCode &code, std::size_t distance)
{
    auto cp = std::make_shared<const code::CssCode>(code);
    auto kind = phbench::decoderFor(code);
    std::size_t n_shots = phbench::shotsFor(code, phbench::shots());
    double p = 2e-3;

    double start_min = 1.0, start_max = 0.0, end_min = 1.0, end_max = 0.0;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        circuit::SmSchedule start =
            circuit::randomColorationSchedule(cp, seed);
        core::PropHuntOptions opts = phbench::defaultOptions(seed * 31);
        opts.maxDepth = start.depth() + 4;
        core::PropHunt tool(opts);
        core::OptimizeResult res = tool.optimize(start, distance);
        double ls = phbench::combinedLer(start, distance, p, kind, n_shots,
                                         seed * 7);
        double le = phbench::combinedLer(res.finalSchedule(), distance, p,
                                         kind, n_shots, seed * 7);
        start_min = std::min(start_min, ls);
        start_max = std::max(start_max, ls);
        end_min = std::min(end_min, le);
        end_max = std::max(end_max, le);
    }
    std::printf("%-22s start=[%.5f, %.5f]  prophunt=[%.5f, %.5f]  "
                "improvement(midpoints)=%.2fx\n",
                code.name().c_str(), start_min, start_max, end_min,
                end_max,
                (end_min + end_max) > 0
                    ? (start_min + start_max) / (end_min + end_max)
                    : 0.0);
}

} // namespace

static void
BM_RandomColoration(benchmark::State &state)
{
    auto cp = std::make_shared<const code::CssCode>(
        code::benchmarkLp39());
    uint64_t seed = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            circuit::randomColorationSchedule(cp, ++seed));
    }
}
BENCHMARK(BM_RandomColoration)->Unit(benchmark::kMicrosecond);

int
main(int argc, char **argv)
{
    std::printf("=== Figure 13: PropHunt on three random coloration "
                "circuits (p=2e-3) ===\n");
    std::printf("Expected shape: every prophunt range at or below its "
                "start range.\n");
    runCode(code::benchmarkSurface(3), 3);
    runCode(code::benchmarkSurface(5), 5);
    runCode(code::benchmarkLp39(), 3);
    runCode(code::benchmarkRqt60(), 6);
    if (phbench::config().full) {
        runCode(code::benchmarkSurface(7), 7);
        runCode(code::benchmarkSurface(9), 9);
        runCode(code::benchmarkRqt54(), 4);
        runCode(code::benchmarkRqt108(), 4);
    }
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

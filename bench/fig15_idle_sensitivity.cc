/**
 * @file
 * Figure 15: sensitivity of SM circuits to idle errors between gate
 * layers.
 *
 * PropHunt's optimized circuits are typically deeper than the coloration
 * baseline; this study sweeps the idle error strength t_g/T (two-qubit
 * layer time over coherence time) at a fixed 1e-3 gate error rate and
 * shows over what range the propagation improvements outweigh the added
 * depth. Three hardware reference points are marked, following the
 * paper: gate-based neutral atoms (~3e-7), superconducting (~2e-4), and
 * movement-based neutral atoms (~5e-4).
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
    double p = 1e-3;

    circuit::SmSchedule start = circuit::randomColorationSchedule(cp, 1);
    core::PropHuntOptions opts = phbench::defaultOptions(5 + code.n());
    opts.maxDepth = start.depth() + 4;
    core::PropHunt tool(opts);
    circuit::SmSchedule opt =
        tool.optimize(start, distance).finalSchedule();

    std::printf("\n--- %s (depth: coloration=%zu prophunt=%zu) ---\n",
                code.name().c_str(), start.depth(), opt.depth());
    std::printf("%12s %14s %14s %8s\n", "idle (t_g/T)", "coloration",
                "prophunt", "ratio");
    for (double idle : {0.0, 3e-7, 1e-5, 1e-4, 2e-4, 5e-4, 2e-3}) {
        double lc = phbench::combinedLer(start, distance, p, kind, n_shots,
                                         301, idle);
        double lo = phbench::combinedLer(opt, distance, p, kind, n_shots,
                                         301, idle);
        const char *marker = "";
        if (idle == 3e-7) {
            marker = "  <- neutral atoms (gates)";
        } else if (idle == 2e-4) {
            marker = "  <- superconducting";
        } else if (idle == 5e-4) {
            marker = "  <- neutral atoms (movement)";
        }
        std::printf("%12.1e %14.5f %14.5f %8.2f%s\n", idle, lc, lo,
                    lo > 0 ? lc / lo : 0.0, marker);
    }
}

} // namespace

static void
BM_DemBuildWithIdle(benchmark::State &state)
{
    code::SurfaceCode s(5);
    auto circ = circuit::buildMemoryCircuit(circuit::nzSchedule(s), 5,
                                            circuit::MemoryBasis::Z);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim::buildDem(circ, sim::NoiseModel::withIdle(1e-3, 1e-4)));
    }
}
BENCHMARK(BM_DemBuildWithIdle)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    std::printf("=== Figure 15: idle-error sensitivity at gate error "
                "1e-3 ===\n");
    std::printf("Expected shape: prophunt at or below coloration for all "
                "relevant idle strengths; the\nadvantage narrows as idle "
                "errors dominate (deeper circuits idle longer).\n");
    runCode(code::benchmarkSurface(3), 3);
    runCode(code::benchmarkSurface(5), 5);
    runCode(code::benchmarkLp39(), 3);
    runCode(code::benchmarkRqt60(), 6);
    if (phbench::config().full) {
        runCode(code::benchmarkSurface(7), 7);
        runCode(code::benchmarkRqt54(), 4);
    }
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

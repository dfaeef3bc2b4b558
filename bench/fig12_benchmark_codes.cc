/**
 * @file
 * Figure 12: PropHunt's performance on the benchmark QEC codes.
 *
 * For each Table 1 code: start from the coloration circuit, run PropHunt,
 * and report LER vs physical error rate for the start, an intermediate
 * snapshot, and the optimized end; surface codes also report the
 * hand-designed circuit. Surface codes decode with union-find, LP/RQT
 * codes with BP+OSD, mirroring the paper's PyMatching / BP-LSD split.
 *
 * Default budgets keep the run in minutes; set PROPHUNT_FULL to include
 * the [[81,1,9]] and [[108,12,4]] codes, and raise PROPHUNT_SHOTS /
 * PROPHUNT_ITERS to sharpen the estimates.
 */
#include <benchmark/benchmark.h>

#include <optional>

#include "bench_common.h"

using namespace prophunt;

namespace {

struct CodeSpec
{
    code::CssCode code;
    std::size_t distance;
    std::optional<circuit::SmSchedule> hand;
};

std::vector<CodeSpec>
specs()
{
    std::vector<CodeSpec> out;
    std::vector<std::size_t> surface_ds = {3, 5, 7};
    if (phbench::config().full) {
        surface_ds.push_back(9);
    }
    for (std::size_t d : surface_ds) {
        code::SurfaceCode s(d);
        out.push_back({s.code(), d, circuit::nzSchedule(s)});
    }
    out.push_back({code::benchmarkLp39(), 3, std::nullopt});
    out.push_back({code::benchmarkRqt60(), 6, std::nullopt});
    out.push_back({code::benchmarkRqt54(), 4, std::nullopt});
    if (phbench::config().full) {
        out.push_back({code::benchmarkRqt108(), 4, std::nullopt});
    }
    return out;
}

void
runCode(const CodeSpec &spec)
{
    auto cp = std::make_shared<const code::CssCode>(spec.code);
    auto kind = phbench::decoderFor(spec.code);
    std::size_t n_shots = phbench::shotsFor(spec.code, phbench::shots());
    std::size_t rounds = spec.distance;

    // The paper's optimization start is "the coloration circuit"; like
    // the paper's (Fig. 13 shows it is randomized) ours is a seeded
    // random coloration instance.
    circuit::SmSchedule start = circuit::randomColorationSchedule(cp, 1);
    core::PropHuntOptions opts = phbench::defaultOptions(1000 + spec.code.n());
    opts.maxDepth = start.depth() + 4;
    core::PropHunt tool(opts);
    core::OptimizeResult res = tool.optimize(start, rounds);
    const circuit::SmSchedule &end = res.finalSchedule();
    const circuit::SmSchedule &mid =
        res.snapshots[res.snapshots.size() / 2];

    std::printf("\n--- %s (rounds=%zu, decoder=%s, shots=%zu, "
                "iterations=%zu) ---\n",
                spec.code.name().c_str(), rounds,
                kind.name.c_str(),
                n_shots, res.history.size());
    std::printf("depth: coloration=%zu optimized=%zu\n", start.depth(),
                end.depth());
    std::printf("%10s %12s %12s %12s", "p", "coloration", "intermediate",
                "prophunt");
    if (spec.hand) {
        std::printf(" %12s", "hand");
    }
    std::printf("\n");
    // At small iteration budgets "intermediate" is often "prophunt"
    // itself; combinedLers scores each distinct schedule once.
    std::vector<circuit::SmSchedule> columns = {start, mid, end};
    if (spec.hand) {
        columns.push_back(*spec.hand);
    }
    for (double p : {1e-3, 2e-3, 4e-3}) {
        std::printf("%10.4f", p);
        for (double ler : phbench::combinedLers(columns, rounds, p, kind,
                                                n_shots, 201)) {
            std::printf(" %12.5f", ler);
        }
        std::printf("\n");
    }
}

} // namespace

static void
BM_PropHuntIterationD3(benchmark::State &state)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    circuit::SmSchedule start = circuit::colorationSchedule(cp);
    core::PropHuntOptions opts;
    opts.iterations = 1;
    opts.samplesPerIteration = 100;
    opts.seed = 9;
    for (auto _ : state) {
        core::PropHunt tool(opts);
        benchmark::DoNotOptimize(tool.optimize(start, 3));
    }
}
BENCHMARK(BM_PropHuntIterationD3)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    std::printf("=== Figure 12: benchmark-code optimization "
                "(coloration start -> PropHunt end) ===\n");
    std::printf("Expected shape: prophunt <= coloration everywhere; for "
                "surface codes prophunt ~ hand-designed;\n"
                "for LP/RQT codes a 2.5x-4x gap at p=1e-3 as budgets "
                "grow.\n");
    for (const auto &spec : specs()) {
        runCode(spec);
    }
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

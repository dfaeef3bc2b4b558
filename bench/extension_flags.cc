/**
 * @file
 * Extension study (paper Section 8 / future work): augmenting SM circuits
 * with flag qubits.
 *
 * The paper notes PropHunt does not use extra ancillas to detect hook
 * errors and suggests combining its circuits with flag fault-tolerance as
 * future work. This bench quantifies that combination on the d=3/d=5
 * surface codes: for the poor schedule (distance-reducing hooks) and the
 * PropHunt-optimized schedule, measure LER with and without flags, and
 * the circuit-level d_eff. Flagged circuits come from
 * circuit::buildMemoryCircuit with flag weight 4 (LerRequest::flagWeight on
 * the Engine path). Flags restore d_eff for the poor schedule at
 * the cost of extra qubits and depth; on already-optimized schedules they
 * mostly add overhead — PropHunt's reordering achieves the same
 * protection for free.
 */
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "circuit/sm_circuit.h"
#include "prophunt/minweight.h"

using namespace prophunt;

namespace {

double
flaggedLer(const circuit::SmSchedule &sched, std::size_t rounds, double p,
           std::size_t n_shots, uint64_t seed)
{
    api::LerRequest req(sched);
    req.rounds = rounds;
    req.noise = sim::NoiseModel::uniform(p);
    req.decoder = "bp_osd";
    req.shots = n_shots;
    req.seed = seed;
    req.ler = phbench::lerOptions();
    req.flagWeight = 4;
    return phbench::engine().run(req).ler();
}

std::size_t
flaggedDeff(const circuit::SmSchedule &sched, std::size_t rounds)
{
    auto circ = circuit::buildMemoryCircuit(
        sched, rounds, circuit::MemoryBasis::Z, 4);
    sim::Dem dem = sim::buildDem(circ, sim::NoiseModel::uniform(1e-3));
    core::MinWeightResult mw = core::solveGlobalMinWeight(dem, 6, 60.0);
    return mw.found ? mw.weight : 0;
}

void
runDistance(std::size_t d)
{
    code::SurfaceCode s(d);
    double p = 2e-3;
    std::size_t n_shots = phbench::shots() / 2;

    circuit::SmSchedule poor = circuit::poorSurfaceSchedule(s);
    core::PropHuntOptions opts = phbench::defaultOptions(3);
    opts.maxDepth = poor.depth() + 4;
    core::PropHunt tool(opts);
    circuit::SmSchedule optimized =
        tool.optimize(poor, d).finalSchedule();

    std::printf("\n--- d=%zu surface code (p=%.0e) ---\n", d, p);
    std::printf("%-22s %12s %12s %10s\n", "schedule", "plain LER",
                "flagged LER", "d_eff");
    struct Row
    {
        const char *label;
        const circuit::SmSchedule &sched;
    } rows[] = {{"poor", poor}, {"prophunt(poor start)", optimized}};
    for (const auto &[label, sched] : rows) {
        double plain = phbench::combinedLer(
            sched, d, p, "bp_osd", n_shots, 71);
        double flg = flaggedLer(sched, d, p, n_shots, 71);
        std::size_t deff =
            d == 3 ? flaggedDeff(sched, d)
                   : core::estimateEffectiveDistance(sched, d, 1e-3, 200,
                                                     7);
        std::printf("%-22s %12.5f %12.5f %9zu%s\n", label, plain, flg,
                    deff, d == 3 ? " (flagged)" : " (plain)");
    }
}

} // namespace

static void
BM_FlaggedCircuitBuild(benchmark::State &state)
{
    code::SurfaceCode s(5);
    circuit::SmSchedule sched = circuit::poorSurfaceSchedule(s);
    for (auto _ : state) {
        benchmark::DoNotOptimize(circuit::buildMemoryCircuit(
            sched, 5, circuit::MemoryBasis::Z, 4));
    }
}
BENCHMARK(BM_FlaggedCircuitBuild)->Unit(benchmark::kMicrosecond);

int
main(int argc, char **argv)
{
    std::printf("=== Extension: flag fault-tolerance on top of PropHunt "
                "===\n");
    std::printf("Expected shape: flags rescue the poor schedule (hooks "
                "detected, d_eff restored); on\nPropHunt-optimized "
                "schedules they add qubits and depth for little LER "
                "gain.\n");
    runDistance(3);
    runDistance(5);
    std::printf("\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

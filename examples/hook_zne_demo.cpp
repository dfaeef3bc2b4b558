/**
 * @file
 * Hook-ZNE demo: error mitigation from suboptimal SM circuits.
 *
 * Walks through the paper's Section 7 pipeline end to end:
 *   1. Run PropHunt on a d=3 surface code with a gentle budget, keeping
 *      every intermediate schedule.
 *   2. Measure each snapshot's logical error rate — the fine-grained noise
 *      ladder Hook-ZNE exploits.
 *   3. Run a logical randomized-benchmarking ZNE experiment comparing the
 *      coarse DS-ZNE distance ladder against the fine Hook-ZNE ladder
 *      under a shared shot budget, reporting the bias of each.
 */
#include <cstdio>
#include <vector>

#include "api/engine.h"
#include "circuit/surface_schedules.h"
#include "cli_common.h"
#include "code/surface.h"
#include "zne/zne.h"

using namespace prophunt;

int
main(int argc, char **argv)
{
    api::Config cfg = phcli::configFromArgs(argc, argv);
    api::Engine engine;

    // Step 1: gentle PropHunt run to harvest intermediate circuits.
    code::SurfaceCode surface(3);
    api::OptimizeRequest oreq(circuit::poorSurfaceSchedule(surface));
    oreq.rounds = 3;
    oreq.options.iterations = 8;
    oreq.options.samplesPerIteration = 40;
    oreq.options.maxAmbiguousPerIteration = 2;
    oreq.options.seed = 77;
    oreq.options.threads = cfg.threads;
    api::OptimizeResult res = engine.run(oreq);
    const auto &snapshots = res.outcome.snapshots;

    // Step 2: the intermediate noise ladder.
    std::printf("Intermediate SM circuits as noise-amplification levels "
                "(d=3, p=2e-3):\n");
    std::printf("%10s %10s %12s\n", "snapshot", "depth", "LER");
    // An iteration that applies no change repeats the previous snapshot,
    // whose LER at the same seed is already measured: run only the first
    // of each run of equal snapshots.
    auto measure = [&](const circuit::SmSchedule &schedule) {
        api::LerRequest req(schedule);
        req.rounds = 3;
        req.noise = sim::NoiseModel::uniform(2e-3);
        req.decoder = "union_find";
        req.shots = 30000;
        req.seed = 9;
        req.ler = cfg.lerOptions();
        return engine.run(req).ler();
    };
    std::vector<double> lers;
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
        double ler = i > 0 && snapshots[i] == snapshots[i - 1]
                         ? lers.back()
                         : measure(snapshots[i]);
        lers.push_back(ler);
        std::printf("%10zu %10zu %12.5f\n", i, snapshots[i].depth(), ler);
    }
    std::printf("Noise scale factors relative to the optimized end:");
    for (double l : lers) {
        std::printf(" %.2f", lers.back() > 0 ? l / lers.back() : 0.0);
    }
    std::printf("\n\n");

    // Step 3: DS-ZNE vs Hook-ZNE bias under the paper's configuration.
    zne::ZneConfig zcfg;
    zcfg.lambdaSuppression = 2.0;
    zcfg.depth = 50;
    zcfg.totalShots = 20000;
    std::printf("ZNE bias comparison (Lambda=2, RB depth 50, 20000-shot "
                "budget, 200 trials):\n");
    std::printf("%16s %12s %12s\n", "distance range", "DS-ZNE",
                "Hook-ZNE");
    for (double dmax : {13.0, 11.0, 9.0}) {
        double ds =
            zne::zneBias(zne::dsZneDistances(dmax), zcfg, 200, 31);
        double hook =
            zne::zneBias(zne::hookZneDistances(dmax), zcfg, 200, 31);
        std::printf("%10.0f..%-4.0f %12.5f %12.5f\n", dmax - 6.0, dmax, ds,
                    hook);
    }
    std::printf("\nHook-ZNE's finely spaced noise levels avoid the very "
                "low distances where estimator\nvariance explodes, giving "
                "more stable extrapolations at the same shot budget.\n");
    return 0;
}

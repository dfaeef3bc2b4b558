/**
 * @file
 * Quickstart: build a surface code, compare schedules, run PropHunt.
 *
 * Demonstrates the full public API surface in ~80 lines, all through the
 * prophunt::api::Engine:
 *   1. Construct a d=3 rotated surface code.
 *   2. Build the generic coloration SM circuit and the hand-designed N-Z
 *      schedule, and measure their logical error rates (LerRequest).
 *   3. Run PropHunt starting from the coloration circuit
 *      (OptimizeRequest) and show the automatically optimized schedule
 *      recovering hand-designed quality.
 */
#include <cstdio>
#include <memory>
#include <string>

#include <fstream>

#include "api/engine.h"
#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "cli_common.h"
#include "code/surface.h"
#include "sim/stim_export.h"

using namespace prophunt;

int
main(int argc, char **argv)
{
    api::Config cfg = phcli::configFromArgs(argc, argv);
    api::Engine engine;
    std::size_t d = 3;
    double p = 3e-3;
    std::size_t shots = 20000;

    code::SurfaceCode surface(d);
    auto code_ptr = std::make_shared<const code::CssCode>(surface.code());
    std::printf("Code: %s (n=%zu, k=%zu, %zu checks)\n",
                surface.code().name().c_str(), surface.code().n(),
                surface.code().k(), surface.code().numChecks());

    sim::NoiseModel noise = sim::NoiseModel::uniform(p);
    auto report = [&](const char *label, const circuit::SmSchedule &s) {
        api::LerRequest req(s);
        req.rounds = d;
        req.noise = noise;
        req.decoder = "union_find";
        req.shots = shots;
        req.seed = 12345;
        req.ler = cfg.lerOptions();
        // Wall-clock telemetry (buildUs/decodeUs) stays off stdout so the
        // printed numbers are byte-identical across runs and threads.
        api::LerResult r = engine.run(req);
        std::printf("%-24s depth=%zu  LER=%.4f (Z:%.4f X:%.4f)  "
                    "[%zu shots, %zu cache hits]\n",
                    label, s.depth(), r.ler(), r.memory.z.ler(),
                    r.memory.x.ler(), r.telemetry.shots,
                    r.telemetry.cacheHits);
        return r.ler();
    };

    circuit::SmSchedule coloration =
        circuit::colorationSchedule(code_ptr);
    circuit::SmSchedule nz = circuit::nzSchedule(surface);
    circuit::SmSchedule poor = circuit::poorSurfaceSchedule(surface);

    double start_ler = report("coloration circuit", coloration);
    report("hand-designed (N-Z)", nz);
    report("poor schedule", poor);

    std::printf("\nRunning PropHunt on the coloration circuit...\n");
    api::OptimizeRequest oreq(coloration);
    oreq.rounds = d;
    oreq.options.iterations = 8;
    oreq.options.samplesPerIteration = 200;
    oreq.options.p = 1e-3;
    oreq.options.seed = 7;
    oreq.options.threads = cfg.threads;
    api::OptimizeResult result = engine.run(oreq);

    for (const auto &rec : result.outcome.history) {
        std::string w = rec.minLogicalWeight == (std::size_t)-1
                            ? "-"
                            : std::to_string(rec.minLogicalWeight);
        std::printf("  iter %zu: ambiguous=%zu candidates=%zu verified=%zu "
                    "applied=%zu depth=%zu min_weight=%s\n",
                    rec.iteration, rec.ambiguousFound,
                    rec.candidatesEnumerated, rec.changesVerified,
                    rec.changesApplied, rec.depth, w.c_str());
    }
    double end_ler = report("\nPropHunt optimized", result.finalSchedule());
    std::printf("Improvement over coloration start: %.2fx\n",
                end_ler > 0 ? start_ler / end_ler : 0.0);

    // Interop: export the optimized circuit in Stim format so it can be
    // cross-checked with the reference toolchain.
    auto circ = circuit::buildMemoryCircuit(result.finalSchedule(), d,
                                            circuit::MemoryBasis::Z);
    std::ofstream("quickstart_optimized.stim")
        << sim::toStimCircuit(circ, noise);
    std::printf("Optimized memory-Z circuit written to "
                "quickstart_optimized.stim\n");
    return 0;
}

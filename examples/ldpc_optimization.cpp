/**
 * @file
 * LDPC-code optimization: PropHunt on codes with no hand-designed circuit.
 *
 * The lifted-product [[39,3,3]] and two-block [[60,2,6]] codes have no
 * known good SM schedule — exactly the situation the paper motivates.
 * Starting from the generic coloration circuit, PropHunt identifies and
 * resolves ambiguity, and this example prints the per-iteration telemetry
 * (found ambiguity, applied changes, effective-distance growth) together
 * with before/after logical error rates under the BP+OSD decoder. Both
 * the optimization and the LER scoring run through api::Engine.
 */
#include <cstdio>
#include <memory>

#include "api/engine.h"
#include "circuit/coloration.h"
#include "cli_common.h"
#include "code/codes.h"

using namespace prophunt;

namespace {

void
optimizeCode(const code::CssCode &code, std::size_t distance,
             api::Engine &engine, const api::Config &cfg)
{
    auto cp = std::make_shared<const code::CssCode>(code);
    circuit::SmSchedule start = circuit::colorationSchedule(cp);

    std::printf("\n=== %s (rounds = %zu) ===\n", code.name().c_str(),
                distance);
    std::printf("coloration circuit: depth %zu, %zu CNOTs/round\n",
                start.depth(), [&] {
                    std::size_t c = 0;
                    for (std::size_t i = 0; i < code.numChecks(); ++i) {
                        c += code.checkSupport(i).size();
                    }
                    return c;
                }());

    api::OptimizeRequest oreq(start);
    oreq.rounds = distance;
    oreq.options.iterations = 6;
    oreq.options.samplesPerIteration = 200;
    oreq.options.seed = 1234;
    oreq.options.threads = cfg.threads;
    api::OptimizeResult res = engine.run(oreq);

    for (const auto &rec : res.outcome.history) {
        std::printf("  iter %zu: ambiguous=%-3zu candidates=%-4zu "
                    "verified=%-3zu applied=%-2zu depth=%zu",
                    rec.iteration, rec.ambiguousFound,
                    rec.candidatesEnumerated, rec.changesVerified,
                    rec.changesApplied, rec.depth);
        if (rec.minLogicalWeight != (std::size_t)-1) {
            std::printf(" min_logical_weight=%zu", rec.minLogicalWeight);
        }
        std::printf("\n");
    }

    double p = 2e-3;
    std::size_t shots = 4000;
    auto ler = [&](const circuit::SmSchedule &s) {
        api::LerRequest req(s);
        req.rounds = distance;
        req.noise = sim::NoiseModel::uniform(p);
        req.decoder = "bp_osd";
        req.shots = shots;
        req.seed = 55;
        req.ler = cfg.lerOptions();
        return engine.run(req).ler();
    };
    double l0 = ler(start), l1 = ler(res.finalSchedule());
    std::printf("LER at p=%.0e: coloration=%.5f prophunt=%.5f "
                "(%.2fx improvement)\n",
                p, l0, l1, l1 > 0 ? l0 / l1 : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    api::Config cfg = phcli::configFromArgs(argc, argv);
    api::Engine engine;
    std::printf("PropHunt on LDPC codes without hand-designed schedules\n");
    optimizeCode(code::benchmarkLp39(), 3, engine, cfg);
    optimizeCode(code::benchmarkRqt60(), 6, engine, cfg);
    return 0;
}

/**
 * @file
 * Surface-code schedule study: the paper's motivating example in code.
 *
 * For d = 3 and d = 5 rotated surface codes, compares the hand-designed
 * 'N-Z' schedule, a deliberately poor schedule, and the generic coloration
 * circuit: depth, circuit-level effective distance, and logical error rate
 * across a physical-error-rate sweep — the sweep runs through
 * api::Engine::run(SweepRequest). Shows how hook-error orientation — not depth —
 * separates good from bad SM circuits (paper Sections 3-4).
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "api/engine.h"
#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "cli_common.h"
#include "code/surface.h"
#include "prophunt/optimizer.h"

using namespace prophunt;

namespace {

void
study(std::size_t d, api::Engine &engine, const api::Config &cfg)
{
    code::SurfaceCode surface(d);
    auto cp = std::make_shared<const code::CssCode>(surface.code());
    std::vector<std::pair<const char *, circuit::SmSchedule>> schedules = {
        {"N-Z (hand-designed)", circuit::nzSchedule(surface)},
        {"poor (swapped)", circuit::poorSurfaceSchedule(surface)},
        {"coloration", circuit::colorationSchedule(cp)},
    };

    std::printf("\n=== d = %zu rotated surface code ===\n", d);
    std::printf("%-22s %6s %6s", "schedule", "depth", "d_eff");
    std::vector<double> ps = {1e-3, 3e-3, 1e-2};
    for (double p : ps) {
        std::printf("  LER(p=%.0e)", p);
    }
    std::printf("\n");
    for (const auto &[label, sched] : schedules) {
        std::printf("%-22s %6zu %6zu", label, sched.depth(),
                    core::estimateEffectiveDistance(sched, d, 1e-3, 300,
                                                    7));
        api::SweepRequest req(sched);
        req.rounds = d;
        req.ps = ps;
        req.decoder = "union_find";
        req.shotsPerPoint = 20000;
        req.seed = 19;
        req.ler = cfg.lerOptions();
        api::SweepResult sweep = engine.run(req);
        for (const auto &point : sweep.points) {
            std::printf("  %11.5f", point.ler());
        }
        std::printf("\n");
    }
    std::printf("Note how the poor schedule shares the N-Z schedule's "
                "depth of 4 yet loses a full\nunit of effective distance "
                "to parallel hook errors.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    api::Config cfg = phcli::configFromArgs(argc, argv);
    api::Engine engine;
    std::printf("Surface-code SM schedule study (paper Figures 1 and 6)\n");
    study(3, engine, cfg);
    study(5, engine, cfg);
    return 0;
}

/**
 * @file
 * End-to-end integration tests: the full paper pipeline on small codes.
 */
#include <gtest/gtest.h>

#include <memory>

#include "api/engine.h"
#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "decoder/bp_osd.h"
#include "prophunt/optimizer.h"
#include "sim/dem_builder.h"

using namespace prophunt;

namespace {

/** Combined memory-Z/X LER of a 3-round memory experiment. */
double
engineLer(const circuit::SmSchedule &sched, double p,
          const decoder::DecoderSpec &spec, std::size_t shots, uint64_t seed)
{
    api::LerRequest req(sched);
    req.rounds = 3;
    req.noise = sim::NoiseModel::uniform(p);
    req.decoder = spec;
    req.shots = shots;
    req.seed = seed;
    return api::Engine().run(req).ler();
}

} // namespace

TEST(Integration, PropHuntRecoversHandDesignedPerformance)
{
    // The paper's headline claim for surface codes (Fig. 12): starting
    // from the generic coloration circuit, PropHunt reaches the LER of
    // the hand-designed schedule.
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    circuit::SmSchedule coloration = circuit::colorationSchedule(cp);

    core::PropHuntOptions opts;
    opts.iterations = 8;
    opts.samplesPerIteration = 200;
    opts.seed = 7;
    opts.threads = 1; // One sampling worker: machine-independent trajectory.
    core::PropHunt tool(opts);
    core::OptimizeResult res = tool.optimize(coloration, 3);

    auto ler = [&](const circuit::SmSchedule &sched) {
        return engineLer(sched, 3e-3, "union_find", 30000, 99);
    };
    double start = ler(coloration);
    double end = ler(res.finalSchedule());
    double hand = ler(circuit::nzSchedule(s));

    EXPECT_LT(end, start) << "optimization must improve the start";
    EXPECT_LT(end, hand * 1.6)
        << "optimized circuit should be close to hand-designed quality";
}

TEST(Integration, OptimizerImprovesLdpcCode)
{
    // LP code: PropHunt should not regress the coloration circuit, and
    // the found min-weight telemetry should reach the code distance.
    auto code = code::benchmarkLp39();
    auto cp = std::make_shared<const code::CssCode>(code);
    circuit::SmSchedule coloration = circuit::colorationSchedule(cp);

    core::PropHuntOptions opts;
    opts.iterations = 4;
    opts.samplesPerIteration = 120;
    opts.maxSubgraphErrors = 32;
    opts.seed = 13;
    opts.threads = 1; // One sampling worker: machine-independent trajectory.
    core::PropHunt tool(opts);
    core::OptimizeResult res = tool.optimize(coloration, 3);

    // Exact decoder mode (stagnationWindow = 0): keeps this ratio bound
    // calibrated to the original decoder, independent of BP cutoff tuning.
    decoder::BpOsdOptions exact;
    exact.stagnationWindow = 0;
    auto ler = [&](const circuit::SmSchedule &sched) {
        return engineLer(sched, 2e-3, decoder::DecoderSpec("bp_osd", exact),
                         3000, 101);
    };
    double start = ler(coloration);
    double end = ler(res.finalSchedule());
    EXPECT_LT(end, start * 1.35)
        << "optimized schedule must not regress materially";
    EXPECT_TRUE(res.finalSchedule().commutationValid());
}

TEST(Integration, IntermediateSnapshotsSpanLerRange)
{
    // Hook-ZNE's raw material: intermediate schedules from a run on the
    // poor schedule must have LERs between start and end.
    code::SurfaceCode s(3);
    core::PropHuntOptions opts;
    opts.iterations = 5;
    opts.samplesPerIteration = 150;
    opts.seed = 21;
    opts.threads = 1; // One sampling worker: machine-independent trajectory.
    core::PropHunt tool(opts);
    core::OptimizeResult res =
        tool.optimize(circuit::poorSurfaceSchedule(s), 3);
    ASSERT_GE(res.snapshots.size(), 2u);

    std::vector<double> lers;
    for (const auto &snap : res.snapshots) {
        lers.push_back(engineLer(snap, 3e-3, "union_find", 20000, 55));
    }
    EXPECT_LT(lers.back(), lers.front())
        << "optimization must reduce the LER end to end";
}

TEST(Integration, DemDetectorCountsStableAcrossSnapshots)
{
    // Detector indexing must stay comparable across schedule changes —
    // the property pruning relies on.
    code::SurfaceCode s(3);
    core::PropHuntOptions opts;
    opts.iterations = 3;
    opts.samplesPerIteration = 100;
    opts.seed = 31;
    opts.threads = 1; // One sampling worker: machine-independent trajectory.
    core::PropHunt tool(opts);
    core::OptimizeResult res =
        tool.optimize(circuit::poorSurfaceSchedule(s), 3);
    sim::NoiseModel noise = sim::NoiseModel::uniform(1e-3);
    std::size_t dets = 0;
    for (const auto &snap : res.snapshots) {
        auto circ =
            circuit::buildMemoryCircuit(snap, 3, circuit::MemoryBasis::Z);
        auto dem = sim::buildDem(circ, noise);
        if (dets == 0) {
            dets = dem.numDetectors;
        }
        EXPECT_EQ(dem.numDetectors, dets);
    }
}

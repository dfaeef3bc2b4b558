/**
 * @file
 * Engine sweep smoke: the fig06 good-vs-poor d=3 sweep through
 * api::Engine::run(SweepRequest), fixed-budget vs SPRT-adaptive.
 *
 * Runs the reduced Figure 6 sweep twice per schedule — once with the
 * fixed per-point shot budget and once with SPRT early stopping — and
 * verifies the engine's contracts:
 *
 *   - the two runs reach identical above/below decisions at the 2%
 *     decision threshold on every point, and
 *   - the adaptive run uses strictly fewer total shots, and
 *   - a cache-disabled engine reproduces the cached sweep bit for bit.
 *
 * Writes a JSON artifact to $PROPHUNT_BENCH_OUT (default
 * BENCH_api_sweep.json) recording per-point decisions/shots and the
 * total shots-saved ratio; exits nonzero on any contract violation, so
 * CI can use it as the api_smoke gate.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace prophunt;

namespace {

struct SweepPair
{
    std::string label;
    api::SweepResult fixed;
    api::SweepResult adaptive;
};

api::SweepRequest
baseRequest(const circuit::SmSchedule &sched, std::size_t shots_per_point)
{
    api::SweepRequest req(sched);
    req.rounds = 3;
    req.ps = {1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2};
    req.decoder = "union_find";
    req.shotsPerPoint = shots_per_point;
    req.seed = 13;
    req.ler = phbench::lerOptions();
    req.sprt.decisionLer = 0.02;
    req.sprt.chunkShots = 1024;
    req.sprt.minShots = 512;
    return req;
}

SweepPair
runPair(const char *label, const circuit::SmSchedule &sched,
        std::size_t shots_per_point)
{
    SweepPair pair;
    pair.label = label;
    api::SweepRequest req = baseRequest(sched, shots_per_point);
    req.sprt.enabled = false;
    pair.fixed = phbench::engine().run(req);
    req.sprt.enabled = true;
    pair.adaptive = phbench::engine().run(req);
    return pair;
}

} // namespace

int
main()
{
    std::size_t shots_per_point = phbench::shots();
    code::SurfaceCode s(3);
    std::vector<SweepPair> pairs = {
        runPair("nz", circuit::nzSchedule(s), shots_per_point),
        runPair("poor", circuit::poorSurfaceSchedule(s), shots_per_point),
    };

    bool decisionsMatch = true;
    std::size_t fixedShots = 0, adaptiveShots = 0;
    std::printf("=== Engine sweep: fixed budget vs SPRT (d=3 fig06 sweep, "
                "decision LER 0.02) ===\n");
    std::printf("%-6s %10s %10s %12s %10s %10s %10s\n", "sched", "p",
                "LER(fix)", "LER(sprt)", "decision", "shots_fix",
                "shots_sprt");
    for (const SweepPair &pair : pairs) {
        for (std::size_t i = 0; i < pair.fixed.points.size(); ++i) {
            const auto &f = pair.fixed.points[i];
            const auto &a = pair.adaptive.points[i];
            bool match = f.decision == a.decision;
            decisionsMatch = decisionsMatch && match;
            std::printf("%-6s %10.4f %10.5f %12.5f %7s/%-3s %10zu %10zu\n",
                        pair.label.c_str(), f.p, f.ler(), a.ler(),
                        api::toString(f.decision),
                        match ? "ok" : "DIFF",
                        f.telemetry.shots, a.telemetry.shots);
        }
        fixedShots += pair.fixed.totalShots();
        adaptiveShots += pair.adaptive.totalShots();
    }
    bool fewerShots = adaptiveShots < fixedShots;
    auto cacheStats = phbench::engine().cacheStats();
    std::printf("\ntotal shots: fixed=%zu sprt=%zu (%.1f%% saved)  "
                "cache: %zu hits / %zu misses\n",
                fixedShots, adaptiveShots,
                100.0 * (1.0 - (double)adaptiveShots / (double)fixedShots),
                cacheStats.hits, cacheStats.misses);

    // Cache contract: a cache-disabled engine reproduces the cached
    // fixed-budget sweep bit for bit.
    bool cacheIdentical = true;
    {
        api::EngineOptions opts;
        opts.cacheEnabled = false;
        api::Engine cold(opts);
        api::SweepRequest req =
            baseRequest(circuit::nzSchedule(s), shots_per_point);
        req.sprt.enabled = false;
        api::SweepResult uncached = cold.run(req);
        for (std::size_t i = 0; i < uncached.points.size(); ++i) {
            const auto &a = pairs[0].fixed.points[i];
            const auto &b = uncached.points[i];
            cacheIdentical = cacheIdentical &&
                             a.memory.z.failures == b.memory.z.failures &&
                             a.memory.x.failures == b.memory.x.failures &&
                             a.memory.z.shots == b.memory.z.shots &&
                             a.memory.x.shots == b.memory.x.shots;
        }
        std::printf("cache on/off bit-identical: %s\n",
                    cacheIdentical ? "yes" : "NO");
    }

    std::string path = phbench::benchOutPath("BENCH_api_sweep.json");
    if (FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f,
                     "{\n  \"bench\": \"api_sweep\",\n"
                     "  \"decision_ler\": 0.02,\n"
                     "  \"shots_per_point\": %zu,\n"
                     "  \"fixed_total_shots\": %zu,\n"
                     "  \"sprt_total_shots\": %zu,\n"
                     "  \"shots_saved\": %zu,\n"
                     "  \"decisions_match\": %s,\n"
                     "  \"sprt_strictly_fewer\": %s,\n"
                     "  \"cache_bit_identical\": %s,\n"
                     "  \"points\": [\n",
                     shots_per_point, fixedShots, adaptiveShots,
                     fixedShots - adaptiveShots,
                     decisionsMatch ? "true" : "false",
                     fewerShots ? "true" : "false",
                     cacheIdentical ? "true" : "false");
        bool firstRow = true;
        for (const SweepPair &pair : pairs) {
            for (std::size_t i = 0; i < pair.fixed.points.size(); ++i) {
                const auto &fx = pair.fixed.points[i];
                const auto &ad = pair.adaptive.points[i];
                std::fprintf(
                    f,
                    "%s    {\"schedule\": \"%s\", \"p\": %g,\n"
                    "     \"ler_fixed\": %.5f, \"ler_sprt\": %.5f,\n"
                    "     \"decision\": \"%s\", \"decision_sprt\": \"%s\",\n"
                    "     \"shots_fixed\": %zu, \"shots_sprt\": %zu}",
                    firstRow ? "" : ",\n", pair.label.c_str(), fx.p,
                    fx.ler(), ad.ler(), api::toString(fx.decision),
                    api::toString(ad.decision), fx.telemetry.shots,
                    ad.telemetry.shots);
                firstRow = false;
            }
        }
        std::fprintf(f, "\n  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
    }

    if (!decisionsMatch || !fewerShots || !cacheIdentical) {
        std::fprintf(stderr, "api_sweep: contract violation "
                             "(decisions_match=%d fewer_shots=%d "
                             "cache_identical=%d)\n",
                     decisionsMatch, fewerShots, cacheIdentical);
        return 1;
    }
    return 0;
}

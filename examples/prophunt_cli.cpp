/**
 * @file
 * Command-line PropHunt driver, mirroring the paper artifact's
 * `prophunt_experiment.py <benchmark> <distance> <samples> <iters>
 * <cores>` interface, plus a resumable LER-sweep front end.
 *
 * Usage:
 *   prophunt_cli <code> <samples-per-iteration> <iterations> [threads]
 *   prophunt_cli sweep <code> [--ps p1,p2,..] [--shots N] [--rounds N]
 *                      [--seed N] [--threads N] [--checkpoint PATH]
 *                      [--out PATH]
 *
 * where <code> is one of: surface3 surface5 surface7 surface9 lp39
 * rqt60 rqt54 rqt108. The default mode prints per-iteration telemetry
 * and the before/after logical error rates. `sweep` runs an LER-vs-p
 * sweep with checkpoint/resume (interrupt it with SIGKILL and rerun the
 * identical command line). Both modes start from
 * api::Config::fromEnv(), so PROPHUNT_THREADS, PROPHUNT_SAT_TIMEOUT and
 * PROPHUNT_MAX_FAILURES apply; arguments override it. A malformed
 * number or an invalid request exits 2, before any shot and without
 * touching an existing --out file. Everything runs through
 * prophunt::api::Engine.
 */
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/config.h"
#include "api/engine.h"
#include "api/sweep_checkpoint.h"
#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"

using namespace prophunt;

namespace {

struct Named
{
    const char *name;
    code::CssCode (*build)();
    std::size_t distance;
};

code::CssCode
surface3()
{
    return code::benchmarkSurface(3);
}
code::CssCode
surface5()
{
    return code::benchmarkSurface(5);
}
code::CssCode
surface7()
{
    return code::benchmarkSurface(7);
}
code::CssCode
surface9()
{
    return code::benchmarkSurface(9);
}

const Named kCodes[] = {
    {"surface3", surface3, 3},       {"surface5", surface5, 5},
    {"surface7", surface7, 7},       {"surface9", surface9, 9},
    {"lp39", code::benchmarkLp39, 3}, {"rqt60", code::benchmarkRqt60, 6},
    {"rqt54", code::benchmarkRqt54, 4},
    {"rqt108", code::benchmarkRqt108, 4},
};

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <code> <samples-per-iteration> <iterations> "
                 "[threads]\n"
                 "       %s sweep <code> [--ps p1,p2,..] [--shots N] "
                 "[--rounds N] [--seed N]\n"
                 "             [--threads N] [--checkpoint PATH] "
                 "[--out PATH]\ncodes:",
                 argv0, argv0);
    for (const Named &n : kCodes) {
        std::fprintf(stderr, " %s", n.name);
    }
    std::fprintf(stderr, "\n");
}

const Named *
findCode(const char *name)
{
    for (const Named &n : kCodes) {
        if (std::strcmp(name, n.name) == 0) {
            return &n;
        }
    }
    return nullptr;
}

/**
 * Stable sweep-result JSON into @p out (the temp file of @p path):
 * tallies only, no timings — a clean run and a kill/resume run of the
 * same request produce byte-identical files, which is exactly what the
 * CI smoke leg diffs. A returned sweep has every point, so "complete"
 * is always true. Throws std::runtime_error when a write fails.
 */
void
writeSweepResultJson(api::AtomicFile &out, const std::string &path,
                     const char *code_name, std::size_t rounds,
                     const api::SweepResult &result)
{
    FILE *f = out.stream();
    std::fprintf(f,
                 "{\n  \"format\": \"prophunt-sweep-result\",\n"
                 "  \"code\": \"%s\",\n  \"rounds\": %zu,\n"
                 "  \"complete\": true,\n  \"points\": [",
                 code_name, rounds);
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        const api::SweepPointResult &pt = result.points[i];
        std::fprintf(f,
                     "%s\n    {\"p\": %.17g, \"z_shots\": %zu, "
                     "\"z_failures\": %zu, \"x_shots\": %zu, "
                     "\"x_failures\": %zu, \"ler\": %.6g}",
                     i == 0 ? "" : ",", pt.p, pt.memory.z.shots,
                     pt.memory.z.failures, pt.memory.x.shots,
                     pt.memory.x.failures, pt.ler());
    }
    std::fprintf(f, "\n  ]\n}\n");
    out.commit();
    std::printf("wrote %s\n", path.c_str());
}

/** The table of a finished sweep: per point the tallies, the combined
 * LER, and each basis's LER with its 95% Wilson interval. */
void
printSweepResult(const api::SweepResult &result)
{
    std::printf("%10s %10s %10s %10s %10s %10s %27s %27s\n", "p",
                "z_shots", "z_fails", "x_shots", "x_fails", "ler",
                "z_ler [95% Wilson]", "x_ler [95% Wilson]");
    for (const api::SweepPointResult &pt : result.points) {
        decoder::RateInterval zi = pt.memory.z.wilson95();
        decoder::RateInterval xi = pt.memory.x.wilson95();
        std::printf("%10.4g %10zu %10zu %10zu %10zu %10.5f "
                    "%7.5f [%7.5f, %7.5f] %7.5f [%7.5f, %7.5f]\n",
                    pt.p, pt.memory.z.shots, pt.memory.z.failures,
                    pt.memory.x.shots, pt.memory.x.failures, pt.ler(),
                    pt.memory.z.ler(), zi.lo, zi.hi, pt.memory.x.ler(),
                    xi.lo, xi.hi);
    }
}

std::vector<double>
parsePs(const char *arg)
{
    std::vector<double> ps;
    std::string list = arg;
    std::size_t begin = 0;
    for (;;) {
        std::size_t comma = list.find(',', begin);
        std::string item = list.substr(begin, comma - begin);
        ps.push_back(api::parseDouble("--ps", item.c_str()));
        if (comma == std::string::npos) {
            return ps;
        }
        begin = comma + 1;
    }
}

int
runSweepMode(int argc, char **argv)
{
    if (argc < 3) {
        usage(argv[0]);
        return 1;
    }
    const Named *spec = findCode(argv[2]);
    if (spec == nullptr) {
        usage(argv[0]);
        return 1;
    }
    code::CssCode code = spec->build();
    auto cp = std::make_shared<const code::CssCode>(code);
    api::SweepRequest req(circuit::colorationSchedule(cp));
    req.rounds = spec->distance;
    req.ps = {1e-3, 2e-3, 4e-3};
    req.decoder = decoder::DecoderSpec{
        std::strncmp(argv[2], "surface", 7) == 0 ? "union_find"
                                                 : "bp_osd"};
    req.shotsPerPoint = 20000;
    req.seed = 1;
    req.ler = api::Config::fromEnv().lerOptions();
    std::string out_path;

    for (int i = 3; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                throw std::invalid_argument(std::string(flag) +
                                            " needs a value");
            }
            return argv[++i];
        };
        auto size = [&](const char *flag) {
            return api::parseSize(flag, value(flag));
        };
        if (std::strcmp(argv[i], "--ps") == 0) {
            req.ps = parsePs(value("--ps"));
        } else if (std::strcmp(argv[i], "--shots") == 0) {
            req.shotsPerPoint = size("--shots");
        } else if (std::strcmp(argv[i], "--rounds") == 0) {
            req.rounds = size("--rounds");
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            req.seed = size("--seed");
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            req.ler.threads = size("--threads");
        } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
            req.checkpointPath = value("--checkpoint");
        } else if (std::strcmp(argv[i], "--out") == 0) {
            out_path = value("--out");
        } else {
            throw std::invalid_argument(
                std::string("unknown sweep flag: ") + argv[i]);
        }
    }

    // Open --out's temp file before any shot: an unwritable path must
    // not cost the whole sweep, and a rejected run leaves an existing
    // file untouched.
    std::optional<api::AtomicFile> out;
    if (!out_path.empty()) {
        out.emplace(out_path);
    }

    std::printf("%s sweep: rounds=%zu decoder=%s shots/point=%zu "
                "points=%zu%s%s\n",
                spec->name, req.rounds, req.decoder.describe().c_str(),
                req.shotsPerPoint, req.ps.size(),
                req.checkpointPath.empty() ? "" : " checkpoint=",
                req.checkpointPath.c_str());

    api::Engine engine;
    api::SweepResult result;
    try {
        result = engine.run(req);
    } catch (const std::exception &) {
        // How much work the failed sweep did: a request rejected before
        // its first shot reports 0.
        std::fprintf(stderr, "decoded shards before the error: %zu\n",
                     engine.serviceStats().decodedShards);
        throw;
    }
    printSweepResult(result);
    std::printf("total sampled shots this run: %zu\n",
                result.telemetry.shots);
    if (out) {
        writeSweepResultJson(*out, out_path, spec->name, req.rounds, result);
    }
    return 0;
}

int
runOptimizeMode(int argc, char **argv)
{
    if (argc < 4) {
        usage(argv[0]);
        return 1;
    }
    const Named *spec = findCode(argv[1]);
    if (!spec) {
        usage(argv[0]);
        return 1;
    }
    api::Config cfg = api::Config::fromEnv();
    core::PropHuntOptions options = cfg.propHuntOptions(1);
    options.samplesPerIteration =
        api::parseSize("<samples-per-iteration>", argv[2]);
    options.iterations = api::parseSize("<iterations>", argv[3]);
    if (argc > 4) {
        options.threads = api::parseSize("[threads]", argv[4]);
    }

    code::CssCode code = spec->build();
    auto cp = std::make_shared<const code::CssCode>(code);
    circuit::SmSchedule start = circuit::colorationSchedule(cp);
    std::printf("%s: n=%zu k=%zu checks=%zu, coloration depth=%zu, "
                "rounds=%zu\n",
                code.name().c_str(), code.n(), code.k(), code.numChecks(),
                start.depth(), spec->distance);

    api::Engine engine;
    api::OptimizeRequest oreq(start);
    oreq.rounds = spec->distance;
    oreq.options = options;
    api::OptimizeResult res = engine.run(oreq);
    for (const auto &rec : res.outcome.history) {
        std::printf("iter %2zu: ambiguous=%-3zu candidates=%-4zu "
                    "schedules=%-4zu prechecked_out=%-4zu full_dems=%-3zu "
                    "verified=%-3zu applied=%-2zu depth=%zu\n",
                    rec.iteration, rec.ambiguousFound,
                    rec.candidatesEnumerated, rec.candidateSchedules,
                    rec.precheckRejected, rec.fullDemBuilds,
                    rec.changesVerified, rec.changesApplied, rec.depth);
    }

    bool is_surface = std::strncmp(argv[1], "surface", 7) == 0;
    decoder::DecoderSpec dec{is_surface ? "union_find" : "bp_osd"};
    std::size_t shots = is_surface ? 20000 : 4000;
    double p = 2e-3;
    auto ler = [&](const circuit::SmSchedule &s) {
        api::LerRequest req(s);
        req.rounds = spec->distance;
        req.noise = sim::NoiseModel::uniform(p);
        req.decoder = dec;
        req.shots = shots;
        req.seed = 3;
        req.ler = cfg.lerOptions();
        req.ler.threads = options.threads;
        return engine.run(req).ler();
    };
    double l0 = ler(start), l1 = ler(res.finalSchedule());
    std::printf("LER @ p=%.0e: coloration=%.5f prophunt=%.5f "
                "(%.2fx)\n",
                p, l0, l1, l1 > 0 ? l0 / l1 : 0.0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc >= 2 && std::strcmp(argv[1], "sweep") == 0) {
            return runSweepMode(argc, argv);
        }
        return runOptimizeMode(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}

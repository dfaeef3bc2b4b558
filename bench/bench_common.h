/**
 * @file
 * Shared helpers for the experiment harness.
 *
 * Every bench binary regenerates one table or figure of the paper and
 * runs its measurements through one process-wide prophunt::api::Engine,
 * so circuits/DEMs/decoders are cached across the (circuit, p) points of
 * a sweep. Budgets default to seconds-to-minutes runtimes and scale with
 * the PROPHUNT_* environment variables documented in api/config.h
 * (PROPHUNT_SHOTS, PROPHUNT_ITERS, PROPHUNT_SAMPLES, PROPHUNT_THREADS,
 * PROPHUNT_MAX_FAILURES, PROPHUNT_FULL, ...).
 */
#ifndef PROPHUNT_BENCH_COMMON_H
#define PROPHUNT_BENCH_COMMON_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "api/config.h"
#include "api/engine.h"
#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "prophunt/optimizer.h"
#include "sim/dem_builder.h"

namespace phbench {

/** The environment-derived configuration, read once. */
inline const prophunt::api::Config &
config()
{
    static const prophunt::api::Config cfg =
        prophunt::api::Config::fromEnv();
    return cfg;
}

/** Process-wide engine: one artifact cache for the whole bench run. */
inline prophunt::api::Engine &
engine()
{
    static prophunt::api::Engine e;
    return e;
}

inline std::size_t
shots()
{
    return config().shots;
}

/** Path of the bench's JSON artifact: $PROPHUNT_BENCH_OUT, else
 * @p fallback. */
inline std::string
benchOutPath(const char *fallback)
{
    return config().benchOut.empty() ? fallback : config().benchOut;
}

/** Seconds on the steady clock, for timing bench phases. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Numeric value of @p key in the entry of @p code inside one of our own
 * committed baseline JSON artifacts, or 0 when the file, entry, or key
 * is absent. The files are our own output, so a string scan beats a
 * JSON library.
 */
inline double
baselineValue(const std::string &path, const std::string &code,
              const char *key)
{
    FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
        return 0.0;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        text.append(buf, n);
    }
    std::fclose(f);
    std::string anchor = "\"code\": \"" + code + "\"";
    std::size_t at = text.find(anchor);
    if (at == std::string::npos) {
        return 0.0;
    }
    std::string quoted = std::string("\"") + key + "\":";
    std::size_t k = text.find(quoted, at);
    if (k == std::string::npos) {
        return 0.0;
    }
    return std::atof(text.c_str() + k + quoted.size());
}

/** Options for the parallel LER engine, scaled by the environment. */
inline prophunt::decoder::LerOptions
lerOptions()
{
    return config().lerOptions();
}

/** Combined memory-Z + memory-X LER of a schedule, through the engine. */
inline double
combinedLer(const prophunt::circuit::SmSchedule &sched, std::size_t rounds,
            double p, const prophunt::decoder::DecoderSpec &decoder,
            std::size_t num_shots, uint64_t seed, double p_idle = 0.0)
{
    prophunt::api::LerRequest req(sched);
    req.rounds = rounds;
    req.noise = prophunt::sim::NoiseModel::withIdle(p, p_idle);
    req.decoder = decoder;
    req.shots = num_shots;
    req.seed = seed;
    req.ler = lerOptions();
    return engine().run(req).ler();
}

/** Decoder choice matching the paper: matching for surface, BP for LDPC. */
inline prophunt::decoder::DecoderSpec
decoderFor(const prophunt::code::CssCode &code)
{
    return code.name().find("surface") != std::string::npos
               ? prophunt::decoder::DecoderSpec{"union_find"}
               : prophunt::decoder::DecoderSpec{"bp_osd"};
}

/** LDPC decoding is slower; scale shot budgets down for BP codes. */
inline std::size_t
shotsFor(const prophunt::code::CssCode &code, std::size_t base)
{
    return decoderFor(code).name == "union_find"
               ? base
               : std::max<std::size_t>(500, base / 2);
}

/** Rounds used for a code's memory experiment (the code distance). */
inline std::size_t
roundsFor(const prophunt::code::CssCode &code, std::size_t distance)
{
    (void)code;
    return distance;
}

/** Default PropHunt options scaled by the environment. The LER knobs are
 * shared with the optimizer so PROPHUNT_THREADS sizes one pool for
 * sampling, candidate verification, and LER scoring alike. */
inline prophunt::core::PropHuntOptions
defaultOptions(uint64_t seed)
{
    return config().propHuntOptions(seed);
}

} // namespace phbench

#endif // PROPHUNT_BENCH_COMMON_H

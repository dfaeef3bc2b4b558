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

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

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

/**
 * combinedLer of each schedule in @p scheds. A schedule equal to an
 * earlier one takes that one's number without being decoded again: the
 * same inputs at the same seed give the same LER.
 */
inline std::vector<double>
combinedLers(const std::vector<prophunt::circuit::SmSchedule> &scheds,
             std::size_t rounds, double p,
             const prophunt::decoder::DecoderSpec &decoder,
             std::size_t num_shots, uint64_t seed)
{
    std::vector<double> lers;
    for (std::size_t i = 0; i < scheds.size(); ++i) {
        std::size_t first =
            std::find(scheds.begin(), scheds.end(), scheds[i]) -
            scheds.begin();
        lers.push_back(first < i ? lers[first]
                                 : combinedLer(scheds[i], rounds, p, decoder,
                                               num_shots, seed));
    }
    return lers;
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

/** Default PropHunt options scaled by the environment. PROPHUNT_THREADS
 * sizes the optimizer's sampling and candidate verification as it sizes
 * LER scoring. */
inline prophunt::core::PropHuntOptions
defaultOptions(uint64_t seed)
{
    return config().propHuntOptions(seed);
}

} // namespace phbench

#endif // PROPHUNT_BENCH_COMMON_H

/**
 * @file
 * One configuration layer for the experiment harness.
 *
 * Replaces the duplicated phbench::env* helpers and phcli's hand-rolled
 * --threads parsing: every binary builds a Config from the environment,
 * optionally overlays command-line flags, and derives LerOptions /
 * PropHuntOptions from it. Recognized environment variables (all
 * optional):
 *
 *   PROPHUNT_SHOTS        Monte-Carlo shots per (circuit, p) point (20000)
 *   PROPHUNT_ITERS        PropHunt iterations (6)
 *   PROPHUNT_SAMPLES      Subgraph samples per iteration (200)
 *   PROPHUNT_SAT_TIMEOUT  Seconds per MaxSAT solve (60)
 *   PROPHUNT_FULL         If set non-empty, include the largest codes
 *   PROPHUNT_THREADS      Worker threads (0 = hardware concurrency)
 *   PROPHUNT_MAX_FAILURES Early-stop failure target per LER run (0 = off)
 *   PROPHUNT_ZNE_TRIALS   Trials per ZNE bias estimate (200)
 */
#ifndef PROPHUNT_API_CONFIG_H
#define PROPHUNT_API_CONFIG_H

#include <cstddef>
#include <cstdint>

#include "decoder/logical_error.h"
#include "prophunt/optimizer.h"

namespace prophunt::api {

/**
 * @p text, all of it, as a non-negative decimal integer. Throws
 * std::invalid_argument naming @p what (a variable, flag or argument)
 * otherwise, or when the value does not fit.
 */
std::size_t parseSize(const char *what, const char *text);

/**
 * @p text, all of it, as a finite non-negative decimal number. Throws
 * std::invalid_argument naming @p what otherwise.
 */
double parseDouble(const char *what, const char *text);

/**
 * std::getenv as a size_t, with a default for an unset or empty
 * variable. Throws std::invalid_argument naming @p name unless the whole
 * value is a non-negative decimal integer.
 */
std::size_t envSize(const char *name, std::size_t def);

/**
 * std::getenv as a double, with a default for an unset or empty
 * variable. Throws std::invalid_argument naming @p name unless the whole
 * value is a finite non-negative decimal number.
 */
double envDouble(const char *name, double def);

/** True iff the variable is set to a non-empty value. */
bool envFlag(const char *name);

/** Harness configuration: env defaults overlaid by CLI flags. */
struct Config
{
    std::size_t shots = 20000;
    std::size_t iterations = 6;
    std::size_t samplesPerIteration = 200;
    double satTimeoutSeconds = 60.0;
    bool full = false;
    /** Worker threads; 0 = hardware concurrency (the global default). */
    std::size_t threads = 0;
    std::size_t maxFailures = 0;
    std::size_t zneTrials = 200;

    /** Defaults overridden by PROPHUNT_* environment variables. */
    static Config fromEnv();

    /**
     * Strip recognized flags from argv (adjusting argc) and overlay them:
     * --threads N, --shots N, --max-failures N. Unrecognized arguments
     * are left in place for the caller. Throws std::invalid_argument
     * naming the flag unless N is a non-negative decimal integer.
     */
    void applyArgs(int &argc, char **argv);

    /** LER-engine knobs (threads, early stop) from this configuration. */
    decoder::LerOptions lerOptions() const;

    /** Optimizer knobs sharing the same thread count. */
    core::PropHuntOptions propHuntOptions(uint64_t seed) const;
};

} // namespace prophunt::api

#endif // PROPHUNT_API_CONFIG_H

/**
 * @file
 * Shared command-line plumbing for the example binaries.
 *
 * Every example builds an api::Config from the environment and overlays
 * the flags api::Config::applyArgs recognizes (`--threads N`, `--shots N`,
 * `--max-failures N`; 0 threads = hardware concurrency, the default).
 * Sharded seeding makes the printed numbers identical for every thread
 * count.
 */
#ifndef PROPHUNT_EXAMPLES_CLI_COMMON_H
#define PROPHUNT_EXAMPLES_CLI_COMMON_H

#include "api/config.h"
#include "api/engine.h"

namespace phcli {

/** Environment configuration overlaid with recognized CLI flags. */
inline prophunt::api::Config
configFromArgs(int &argc, char **argv)
{
    prophunt::api::Config cfg = prophunt::api::Config::fromEnv();
    cfg.applyArgs(argc, argv);
    return cfg;
}

} // namespace phcli

#endif // PROPHUNT_EXAMPLES_CLI_COMMON_H

#include "api/config.h"

#include <cstdlib>
#include <cstring>

namespace prophunt::api {

std::size_t
envSize(const char *name, std::size_t def)
{
    const char *v = std::getenv(name);
    return v ? (std::size_t)std::strtoull(v, nullptr, 10) : def;
}

double
envDouble(const char *name, double def)
{
    const char *v = std::getenv(name);
    return v ? std::strtod(v, nullptr) : def;
}

bool
envFlag(const char *name)
{
    return std::getenv(name) != nullptr;
}

Config
Config::fromEnv()
{
    Config cfg;
    cfg.shots = envSize("PROPHUNT_SHOTS", cfg.shots);
    cfg.iterations = envSize("PROPHUNT_ITERS", cfg.iterations);
    cfg.samplesPerIteration =
        envSize("PROPHUNT_SAMPLES", cfg.samplesPerIteration);
    cfg.satTimeoutSeconds =
        envDouble("PROPHUNT_SAT_TIMEOUT", cfg.satTimeoutSeconds);
    cfg.full = envFlag("PROPHUNT_FULL");
    cfg.threads = envSize("PROPHUNT_THREADS", cfg.threads);
    cfg.maxFailures = envSize("PROPHUNT_MAX_FAILURES", cfg.maxFailures);
    cfg.zneTrials = envSize("PROPHUNT_ZNE_TRIALS", cfg.zneTrials);
    cfg.benchReps = envSize("PROPHUNT_BENCH_REPS", cfg.benchReps);
    if (const char *out = std::getenv("PROPHUNT_BENCH_OUT")) {
        cfg.benchOut = out;
    }
    return cfg;
}

void
Config::applyArgs(int &argc, char **argv)
{
    auto eat = [&](int i, int count) {
        for (int j = i; j + count < argc; ++j) {
            argv[j] = argv[j + count];
        }
        argc -= count;
    };
    for (int i = 1; i < argc;) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = (std::size_t)std::strtoull(argv[i + 1], nullptr, 10);
            eat(i, 2);
        } else if (std::strcmp(argv[i], "--shots") == 0 && i + 1 < argc) {
            shots = (std::size_t)std::strtoull(argv[i + 1], nullptr, 10);
            eat(i, 2);
        } else if (std::strcmp(argv[i], "--max-failures") == 0 &&
                   i + 1 < argc) {
            maxFailures =
                (std::size_t)std::strtoull(argv[i + 1], nullptr, 10);
            eat(i, 2);
        } else {
            ++i;
        }
    }
}

decoder::LerOptions
Config::lerOptions() const
{
    decoder::LerOptions opts;
    opts.threads = threads;
    opts.maxFailures = maxFailures;
    return opts;
}

core::PropHuntOptions
Config::propHuntOptions(uint64_t seed) const
{
    core::PropHuntOptions opts;
    opts.iterations = iterations;
    opts.samplesPerIteration = samplesPerIteration;
    opts.satTimeoutSeconds = satTimeoutSeconds;
    opts.seed = seed;
    opts.ler = lerOptions();
    return opts;
}

} // namespace prophunt::api

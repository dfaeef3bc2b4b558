#include "api/config.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace prophunt::api {

namespace {

[[noreturn]] void
malformed(const char *what, const char *text, const char *expected)
{
    throw std::invalid_argument(std::string(what) + ": expected " +
                                expected + ", got '" + text + "'");
}

/** The variable's value, or nullptr when it is unset or empty. */
const char *
envValue(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && v[0] != '\0' ? v : nullptr;
}

} // namespace

std::size_t
parseSize(const char *what, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!std::isdigit((unsigned char)text[0]) || *end != '\0' ||
        errno == ERANGE) {
        malformed(what, text, "a non-negative integer");
    }
    return (std::size_t)v;
}

double
parseDouble(const char *what, const char *text)
{
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (!(std::isdigit((unsigned char)text[0]) || text[0] == '.') ||
        *end != '\0' || !std::isfinite(v)) {
        malformed(what, text, "a non-negative number");
    }
    return v;
}

std::size_t
envSize(const char *name, std::size_t def)
{
    const char *v = envValue(name);
    return v ? parseSize(name, v) : def;
}

double
envDouble(const char *name, double def)
{
    const char *v = envValue(name);
    return v ? parseDouble(name, v) : def;
}

bool
envFlag(const char *name)
{
    return envValue(name) != nullptr;
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
            threads = parseSize("--threads", argv[i + 1]);
            eat(i, 2);
        } else if (std::strcmp(argv[i], "--shots") == 0 && i + 1 < argc) {
            shots = parseSize("--shots", argv[i + 1]);
            eat(i, 2);
        } else if (std::strcmp(argv[i], "--max-failures") == 0 &&
                   i + 1 < argc) {
            maxFailures = parseSize("--max-failures", argv[i + 1]);
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
    opts.threads = threads;
    return opts;
}

} // namespace prophunt::api

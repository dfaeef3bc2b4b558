/**
 * @file
 * Tests for the prophunt::api engine surface: decoder registry
 * round-trips, artifact-cache determinism, concurrent runs on one
 * engine, optimize requests, the api::Config layer, and sweeps.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "api/config.h"
#include "api/engine.h"
#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/css_code.h"
#include "code/surface.h"
#include "decoder/logical_error.h"
#include "decoder/registry.h"
#include "gf2/matrix.h"
#include "prophunt/optimizer.h"
#include "sim/dem_builder.h"
#include "sim/parallel_sampler.h"
#include "support/sampling.h"

using namespace prophunt;

namespace {

circuit::SmSchedule
d3Schedule()
{
    code::SurfaceCode s(3);
    return circuit::nzSchedule(s);
}

struct SmallModel
{
    circuit::SmCircuit circuit;
    sim::Dem dem;
};

SmallModel
smallModel()
{
    SmallModel m;
    m.circuit = circuit::buildMemoryCircuit(d3Schedule(), 3,
                                            circuit::MemoryBasis::Z);
    m.dem = sim::buildDem(m.circuit, sim::NoiseModel::uniform(1e-3));
    return m;
}

} // namespace

// --- registry ---------------------------------------------------------------

TEST(Registry, EveryRegisteredNameConstructs)
{
    SmallModel m = smallModel();
    for (const char *name : {"union_find", "bp_osd"}) {
        auto dec = decoder::Registry::make(name, m.dem, m.circuit);
        ASSERT_NE(dec, nullptr) << name;
        // Empty syndrome decodes to the trivial correction everywhere.
        EXPECT_EQ(dec->decode({}), 0u) << name;
        // Clones are independent and construct from every backend.
        EXPECT_NE(dec->clone(), nullptr) << name;
    }
}

TEST(Registry, KnownNamesPresent)
{
    // The names are fixed; the test-only MLE oracle is not one of them,
    // and union_find has no second name.
    SmallModel m = smallModel();
    for (const char *name : {"mle", "matching"}) {
        EXPECT_THROW(decoder::Registry::make(name, m.dem, m.circuit),
                     std::invalid_argument)
            << name;
    }
}

TEST(Registry, UnknownNameErrorsCleanly)
{
    SmallModel m = smallModel();
    try {
        decoder::Registry::make("no_such_decoder", m.dem, m.circuit);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no_such_decoder"), std::string::npos);
        EXPECT_NE(msg.find("bp_osd"), std::string::npos)
            << "error should list the registered names";
    }
}

TEST(Registry, MismatchedOptionsThrow)
{
    SmallModel m = smallModel();
    decoder::DecoderSpec spec{"union_find",
                              decoder::BpOsdOptions{}};
    EXPECT_THROW(decoder::Registry::make(spec, m.dem, m.circuit),
                 std::invalid_argument);
}

TEST(Registry, PerDecoderOptionsApply)
{
    SmallModel m = smallModel();
    decoder::BpOsdOptions bp;
    bp.stagnationWindow = 0;
    EXPECT_NE(decoder::Registry::make({"bp_osd", bp}, m.dem, m.circuit),
              nullptr);
}

TEST(Registry, SpecDescribeDistinguishesOptions)
{
    decoder::BpOsdOptions a, b;
    b.stagnationWindow = 0;
    EXPECT_NE(decoder::DecoderSpec("bp_osd", a).describe(),
              decoder::DecoderSpec("bp_osd", b).describe());
    EXPECT_EQ(decoder::DecoderSpec("bp_osd", a).describe(),
              decoder::DecoderSpec("bp_osd", a).describe());
    // Doubles print round-trip exact: a scale 1e-7 away is another key.
    decoder::BpOsdOptions c;
    c.scale = 0.8000001;
    EXPECT_NE(decoder::DecoderSpec("bp_osd", a).describe(),
              decoder::DecoderSpec("bp_osd", c).describe());
}

TEST(Registry, RejectsMoreThan64Observables)
{
    // Predictions are 64-bit observable masks, so a DEM with 65
    // observables must be refused, not silently decoded on the first 64.
    // One X and one Z check on qubits {0, 1} of 67 leave k = 65.
    gf2::Matrix hx(1, 67), hz(1, 67);
    for (std::size_t q : {0u, 1u}) {
        hx.set(0, q, true);
        hz.set(0, q, true);
    }
    auto code = std::make_shared<const code::CssCode>(hx, hz, "k65");
    ASSERT_EQ(code->k(), 65u);
    circuit::SmSchedule schedule = circuit::colorationSchedule(code);
    for (const char *name : {"union_find", "bp_osd"}) {
        try {
            oracles::measureMemoryLer(schedule, 1,
                                      sim::NoiseModel::uniform(1e-3), name,
                                      64, 1);
            FAIL() << name << ": expected std::invalid_argument";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("65 observables"),
                      std::string::npos)
                << name << ": " << e.what();
        }
    }
}

// --- schedule hashing -------------------------------------------------------

TEST(ScheduleHash, EqualSchedulesHashEqual)
{
    EXPECT_EQ(api::hashSchedule(d3Schedule()),
              api::hashSchedule(d3Schedule()));
}

TEST(ScheduleHash, DifferentSchedulesHashDifferent)
{
    code::SurfaceCode s(3);
    EXPECT_NE(api::hashSchedule(circuit::nzSchedule(s)),
              api::hashSchedule(circuit::poorSurfaceSchedule(s)));
}

TEST(ScheduleHash, GoldenValues)
{
    // Values of the byte-at-a-time FNV-1a original; rqt108's 108 qubits
    // span two words of each parity-check row.
    auto coloration = [](code::CssCode c) {
        return api::hashSchedule(circuit::colorationSchedule(
            std::make_shared<const code::CssCode>(std::move(c))));
    };
    EXPECT_EQ(api::hashSchedule(d3Schedule()), 6086093753182604491ULL);
    EXPECT_EQ(coloration(code::benchmarkLp39()), 12303966090331988625ULL);
    EXPECT_EQ(coloration(code::benchmarkRqt108()), 9243990142034731976ULL);
}

// --- engine -----------------------------------------------------------------

namespace {

api::LerRequest
d3Request(std::size_t threads)
{
    api::LerRequest req(d3Schedule());
    req.rounds = 3;
    req.noise = sim::NoiseModel::uniform(3e-3);
    req.decoder = "union_find";
    req.shots = 4000;
    req.seed = 77;
    req.ler.threads = threads;
    return req;
}

/** Shards a memory run decodes over both bases, @p unit shots each. */
std::size_t
shardsOf(const decoder::MemoryLer &m,
         std::size_t unit = sim::kDefaultShardShots)
{
    return sim::ShardPlan{m.z.shots, unit}.numShards() +
           sim::ShardPlan{m.x.shots, unit}.numShards();
}

} // namespace

TEST(Engine, MatchesMeasureMemoryLerBitForBit)
{
    api::Engine engine;
    api::LerRequest req = d3Request(1);
    api::LerResult viaEngine = engine.run(req);
    decoder::MemoryLer direct = oracles::measureMemoryLer(
        req.schedule, 3, req.noise, "union_find", 4000, 77);
    EXPECT_EQ(viaEngine.memory.z.failures, direct.z.failures);
    EXPECT_EQ(viaEngine.memory.z.shots, direct.z.shots);
    EXPECT_EQ(viaEngine.memory.x.failures, direct.x.failures);
    EXPECT_EQ(viaEngine.memory.x.shots, direct.x.shots);
    EXPECT_EQ(viaEngine.telemetry.shots, 8000u);
}

TEST(Engine, ZeroShotRequestReturnsEmptyWellFormedResult)
{
    // shots == 0 must not go through the generic shard math (or even the
    // artifact build): an empty result with zeroed telemetry.
    api::Engine engine;
    api::LerRequest req = d3Request(1);
    req.shots = 0;
    api::LerResult r = engine.run(req);
    EXPECT_EQ(r.memory.z.shots, 0u);
    EXPECT_EQ(r.memory.x.shots, 0u);
    EXPECT_EQ(r.memory.z.failures, 0u);
    EXPECT_EQ(r.memory.x.failures, 0u);
    EXPECT_FALSE(r.memory.z.earlyStopped);
    EXPECT_EQ(r.ler(), 0.0);
    EXPECT_EQ(r.telemetry.shots, 0u);
    EXPECT_EQ(r.telemetry.buildUs, 0u);
    EXPECT_EQ(r.telemetry.decodeUs, 0u);
    EXPECT_EQ(r.telemetry.cacheHits, 0u);
    EXPECT_EQ(r.telemetry.cacheMisses, 0u);
    EXPECT_EQ(r.telemetry.packed.packedShots, 0u);
    EXPECT_EQ(r.telemetry.packed.adapterShots, 0u);
    EXPECT_EQ(r.telemetry.coalescedRequests, 0u);
    EXPECT_EQ(r.telemetry.workSteals, 0u);
    EXPECT_EQ(r.telemetry.queueDepth, 0u);
    EXPECT_EQ(engine.cacheStats().demEntries, 0u);

    // Zero shots per point in a sweep: well-formed empty points.
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3, 3e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 0;
    api::SweepResult sr = engine.run(sweep);
    ASSERT_EQ(sr.points.size(), 2u);
    for (const api::SweepPointResult &pt : sr.points) {
        EXPECT_EQ(pt.memory.z.shots, 0u);
        EXPECT_EQ(pt.memory.x.shots, 0u);
        EXPECT_EQ(pt.telemetry.shots, 0u);
        EXPECT_EQ(pt.telemetry.cacheMisses, 0u);
    }
    EXPECT_EQ(sr.telemetry.shots, 0u);
}

TEST(Engine, UltraRareNoiseGivesZeroLer)
{
    // At p = 1e-21 every mechanism's first geometric gap exceeds 2^64
    // shots, so no fault fires in any shot.
    api::Engine engine;
    api::LerRequest req = d3Request(1);
    req.noise = sim::NoiseModel::uniform(1e-21);
    req.shots = 20000;
    api::LerResult r = engine.run(req);
    EXPECT_EQ(r.memory.z.shots, 20000u);
    EXPECT_EQ(r.memory.x.shots, 20000u);
    EXPECT_EQ(r.memory.z.failures, 0u);
    EXPECT_EQ(r.memory.x.failures, 0u);
    EXPECT_EQ(r.ler(), 0.0);
}

TEST(Engine, InvalidNoiseStrengthErrorsInsteadOfZeroLer)
{
    // A negative or NaN strength must fail the request, not run it as a
    // noiseless circuit that reports LER 0.
    api::Engine engine;
    for (double bad : {-1e-3, std::numeric_limits<double>::quiet_NaN()}) {
        api::LerRequest req = d3Request(1);
        req.noise = sim::NoiseModel::uniform(bad);
        req.shots = 2000;
        EXPECT_THROW(engine.run(req), std::invalid_argument) << bad;
    }
    api::LerRequest idle = d3Request(1);
    idle.noise = sim::NoiseModel::withIdle(3e-3, -1e-4);
    EXPECT_THROW(engine.run(idle), std::invalid_argument);
}

TEST(Engine, ShardLargerThanShotsClampsToOneShard)
{
    // shardShots > shots must behave exactly like a single exact-fit
    // shard, not fall into degenerate shard math.
    api::Engine engine;
    api::LerRequest big = d3Request(1);
    big.shots = 100;
    big.ler.shardShots = 4096;
    api::LerRequest exact = d3Request(1);
    exact.shots = 100;
    exact.ler.shardShots = 100;
    api::LerResult a = engine.run(big);
    api::LerResult b = engine.run(exact);
    EXPECT_EQ(a.memory.z.shots, 100u);
    EXPECT_EQ(a.memory.x.shots, 100u);
    EXPECT_EQ(a.memory.z.failures, b.memory.z.failures);
    EXPECT_EQ(a.memory.x.failures, b.memory.x.failures);
    EXPECT_EQ(a.telemetry.shots, 200u);
}

TEST(Engine, CacheOnOffBitIdenticalAcrossThreadCounts)
{
    // The uncached side is a fresh Engine per request: its artifacts are
    // built for that request alone.
    api::Engine cachedEngine;
    api::LerResult reference = cachedEngine.run(d3Request(1));
    for (std::size_t threads : {1u, 2u, 3u}) {
        api::LerRequest req = d3Request(threads);
        std::size_t before = cachedEngine.serviceStats().decodedShards;
        api::LerResult a = cachedEngine.run(req);
        EXPECT_EQ(cachedEngine.serviceStats().decodedShards - before,
                  shardsOf(a.memory))
            << "the cached engine must decode every shard it reports";
        EXPECT_GT(a.telemetry.cacheHits, 0u);
        api::Engine uncachedEngine;
        api::LerResult b = uncachedEngine.run(req);
        EXPECT_EQ(b.telemetry.cacheHits, 0u);
        for (const api::LerResult *r : {&a, &b}) {
            EXPECT_EQ(r->memory.z.failures, reference.memory.z.failures)
                << "threads=" << threads;
            EXPECT_EQ(r->memory.x.failures, reference.memory.x.failures)
                << "threads=" << threads;
            EXPECT_EQ(r->memory.z.shots, reference.memory.z.shots);
            EXPECT_EQ(r->memory.x.shots, reference.memory.x.shots);
        }
    }
}

TEST(Engine, CacheHitsReported)
{
    api::Engine engine;
    EXPECT_EQ(engine.cacheStats().demEntries, 0u);
    api::LerResult first = engine.run(d3Request(1));
    EXPECT_EQ(first.telemetry.cacheHits, 0u);
    EXPECT_GT(first.telemetry.cacheMisses, 0u);
    EXPECT_GT(first.telemetry.buildUs, 0u);

    api::LerResult second = engine.run(d3Request(1));
    EXPECT_GT(second.telemetry.cacheHits, 0u);
    EXPECT_EQ(second.telemetry.cacheMisses, 0u);
    EXPECT_EQ(second.telemetry.buildUs, 0u)
        << "cache hits must not rebuild artifacts";

    auto stats = engine.cacheStats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.demEntries, 0u);
}

TEST(Engine, DecoderOptionsKeyTheDemCache)
{
    // Requests differing only in BP+OSD's scale, below six significant
    // digits, must not share a DEM entry (and so a decoder prototype).
    api::Engine engine;
    decoder::BpOsdOptions bp;
    api::LerRequest first = d3Request(1);
    first.shots = 200;
    first.decoder = {"bp_osd", bp};
    api::LerRequest second = first;
    bp.scale = 0.8000001;
    second.decoder = {"bp_osd", bp};
    engine.run(first);
    std::size_t demEntries = engine.cacheStats().demEntries;
    api::LerResult r = engine.run(second);
    EXPECT_EQ(r.telemetry.cacheMisses, 2u) << "one DEM miss per basis";
    EXPECT_EQ(engine.cacheStats().demEntries, 2 * demEntries);
}

TEST(Engine, IdenticalRerunDecodesEveryShard)
{
    api::Engine engine;
    api::LerResult first = engine.run(d3Request(1));
    std::size_t decoded = engine.serviceStats().decodedShards;
    EXPECT_EQ(decoded, shardsOf(first.memory));
    api::LerResult second = engine.run(d3Request(1));
    EXPECT_EQ(second.memory.z.failures, first.memory.z.failures);
    EXPECT_EQ(second.memory.x.failures, first.memory.x.failures);
    EXPECT_EQ(second.memory.z.shots, first.memory.z.shots);
    EXPECT_EQ(second.memory.x.shots, first.memory.x.shots);
    EXPECT_EQ(engine.serviceStats().decodedShards, 2 * decoded);
}

TEST(Engine, ConcurrentRunsMatchSerial)
{
    // Two threads call run() on one Engine at once; they share its
    // artifact cache and worker pool, and each must get what a
    // one-thread serial run of its own request gets. Equal seeds make
    // the two requests identical (one decode key, so they may coalesce);
    // distinct seeds make them two streams over the same artifacts.
    for (const char *decoder : {"union_find", "bp_osd"}) {
        for (uint64_t other_seed : {77u, 78u}) {
            SCOPED_TRACE(std::string(decoder) + " seeds 77, " +
                         std::to_string(other_seed));
            api::LerRequest reqs[2] = {d3Request(0), d3Request(0)};
            for (api::LerRequest &req : reqs) {
                req.decoder = decoder;
                req.shots = 1024;
                req.ler.shardShots = 128;
            }
            reqs[1].seed = other_seed;

            api::Engine engine;
            api::LerResult got[2];
            std::thread other([&] { got[1] = engine.run(reqs[1]); });
            got[0] = engine.run(reqs[0]);
            other.join();

            for (int i = 0; i < 2; ++i) {
                decoder::MemoryLer want = oracles::measureMemoryLer(
                    reqs[i].schedule, reqs[i].rounds, reqs[i].noise,
                    reqs[i].decoder, reqs[i].shots, reqs[i].seed,
                    reqs[i].ler);
                EXPECT_EQ(got[i].memory.z.shots, want.z.shots) << i;
                EXPECT_EQ(got[i].memory.z.failures, want.z.failures) << i;
                EXPECT_EQ(got[i].memory.x.shots, want.x.shots) << i;
                EXPECT_EQ(got[i].memory.x.failures, want.x.failures) << i;
            }
        }
    }
}

TEST(Engine, FlaggedCircuitsCachedSeparately)
{
    api::Engine engine;
    engine.run(d3Request(1));
    api::LerRequest flagged = d3Request(1);
    flagged.shots = 500;
    flagged.flagWeight = 4;
    api::LerResult f = engine.run(flagged);
    EXPECT_EQ(f.telemetry.cacheHits, 0u)
        << "a flagged request must not reuse the plain circuit";
    EXPECT_GT(f.telemetry.cacheMisses, 0u);
    EXPECT_EQ(f.telemetry.shots, 1000u);
}

TEST(Engine, SweepMatchesPointwiseRuns)
{
    // maxFailures = 0 runs the full budget; maxFailures = 5 over 250-shot
    // shards stops the 3e-3 point early, so the early-stop accounting of
    // a sweep point is compared with the LerRequest's too.
    for (std::size_t max_failures : {0, 5}) {
        SCOPED_TRACE("maxFailures " + std::to_string(max_failures));
        api::Engine engine;
        api::SweepRequest sweep(d3Schedule());
        sweep.rounds = 3;
        sweep.ps = {1e-3, 3e-3};
        sweep.decoder = "union_find";
        sweep.shotsPerPoint = 2000;
        sweep.seed = 5;
        sweep.ler.threads = 1;
        sweep.ler.maxFailures = max_failures;
        sweep.ler.shardShots = max_failures == 0 ? sweep.ler.shardShots : 250;
        api::SweepResult result = engine.run(sweep);
        ASSERT_EQ(result.points.size(), 2u);

        std::size_t pointwise_shots = 0;
        bool any_early_stop = false;
        for (std::size_t i = 0; i < sweep.ps.size(); ++i) {
            api::LerRequest req(sweep.schedule);
            req.rounds = 3;
            req.noise = sim::NoiseModel::uniform(sweep.ps[i]);
            req.decoder = "union_find";
            req.shots = 2000;
            req.seed = 5;
            req.ler = sweep.ler;
            std::size_t before = engine.serviceStats().decodedShards;
            api::LerResult point = engine.run(req);
            EXPECT_EQ(engine.serviceStats().decodedShards - before,
                      shardsOf(point.memory, req.ler.shardShots))
                << "a pointwise run must decode, not replay the sweep";
            const decoder::MemoryLer &m = result.points[i].memory;
            EXPECT_EQ(m.z.shots, point.memory.z.shots);
            EXPECT_EQ(m.z.failures, point.memory.z.failures);
            EXPECT_EQ(m.z.earlyStopped, point.memory.z.earlyStopped);
            EXPECT_EQ(m.x.shots, point.memory.x.shots);
            EXPECT_EQ(m.x.failures, point.memory.x.failures);
            EXPECT_EQ(m.x.earlyStopped, point.memory.x.earlyStopped);
            pointwise_shots += point.telemetry.shots;
            any_early_stop = any_early_stop || m.z.earlyStopped ||
                             m.x.earlyStopped;
        }
        EXPECT_EQ(result.totalShots(), pointwise_shots);
        if (max_failures == 0) {
            EXPECT_EQ(result.totalShots(), 8000u);
        } else {
            EXPECT_TRUE(any_early_stop);
        }
    }
}

// --- optimize ---------------------------------------------------------------

namespace {

core::PropHuntOptions
cheapMaxSatOptions(uint64_t seed)
{
    core::PropHuntOptions opts;
    opts.iterations = 2;
    opts.samplesPerIteration = 50;
    opts.maxAmbiguousPerIteration = 2;
    opts.maxCost = 8;
    opts.satTimeoutSeconds = 5.0;
    opts.seed = seed;
    return opts;
}

} // namespace

TEST(EngineOptimize, MatchesPropHuntOptimize)
{
    code::SurfaceCode s(3);
    api::Engine engine;
    api::OptimizeRequest req(circuit::poorSurfaceSchedule(s));
    req.rounds = 3;
    req.options = cheapMaxSatOptions(17);
    api::OptimizeResult viaEngine = engine.run(req);
    core::PropHunt tool(req.options);
    core::OptimizeResult direct = tool.optimize(req.start, req.rounds);
    EXPECT_TRUE(viaEngine.finalSchedule() == direct.finalSchedule());
}

TEST(Engine, ZeroRoundsIsRejected)
{
    // A zero-round memory experiment has no last syndrome round to
    // compare against the data readout; every request kind must refuse
    // it instead of indexing measurement round -1.
    api::Engine engine;
    for (const char *decoder : {"union_find", "bp_osd"}) {
        api::LerRequest ler = d3Request(1);
        ler.rounds = 0;
        ler.decoder = decoder;
        EXPECT_THROW(engine.run(ler), std::invalid_argument) << decoder;
    }
    api::LerRequest flagged = d3Request(1);
    flagged.rounds = 0;
    flagged.flagWeight = 4;
    EXPECT_THROW(engine.run(flagged), std::invalid_argument);

    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 0;
    sweep.ps = {1e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 100;
    EXPECT_THROW(engine.run(sweep), std::invalid_argument);

    code::SurfaceCode s(3);
    api::OptimizeRequest opt(circuit::poorSurfaceSchedule(s));
    opt.rounds = 0;
    opt.options = cheapMaxSatOptions(1);
    EXPECT_THROW(engine.run(opt), std::invalid_argument);
}

TEST(Engine, SweepDeterministicAcrossThreadCounts)
{
    // 512-shot shards and maxFailures = 30 stop the 1.6e-2 point after a
    // few shards, so the early-stop truncation is exercised under every
    // thread count too.
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {4e-3, 1.6e-2};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 8000;
    sweep.seed = 29;
    sweep.ler.shardShots = 512;
    sweep.ler.maxFailures = 30;
    sweep.ler.threads = 1;
    api::SweepResult one = engine.run(sweep);
    EXPECT_TRUE(one.points[1].memory.z.earlyStopped);
    for (std::size_t threads : {2u, 3u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        sweep.ler.threads = threads;
        api::SweepResult many = engine.run(sweep);
        ASSERT_EQ(many.points.size(), one.points.size());
        for (std::size_t i = 0; i < one.points.size(); ++i) {
            const decoder::MemoryLer &a = one.points[i].memory;
            const decoder::MemoryLer &b = many.points[i].memory;
            EXPECT_EQ(b.z.shots, a.z.shots);
            EXPECT_EQ(b.z.failures, a.z.failures);
            EXPECT_EQ(b.z.earlyStopped, a.z.earlyStopped);
            EXPECT_EQ(b.x.shots, a.x.shots);
            EXPECT_EQ(b.x.failures, a.x.failures);
            EXPECT_EQ(b.x.earlyStopped, a.x.earlyStopped);
        }
        EXPECT_EQ(many.totalShots(), one.totalShots());
    }
}

// --- config -----------------------------------------------------------------

TEST(Config, EnvOverridesDefaults)
{
    ::setenv("PROPHUNT_SHOTS", "123", 1);
    ::setenv("PROPHUNT_THREADS", "2", 1);
    ::setenv("PROPHUNT_MAX_FAILURES", "7", 1);
    ::setenv("PROPHUNT_SAT_TIMEOUT", "1.5", 1);
    api::Config cfg = api::Config::fromEnv();
    ::unsetenv("PROPHUNT_SHOTS");
    ::unsetenv("PROPHUNT_THREADS");
    ::unsetenv("PROPHUNT_MAX_FAILURES");
    ::unsetenv("PROPHUNT_SAT_TIMEOUT");
    EXPECT_EQ(cfg.shots, 123u);
    EXPECT_EQ(cfg.threads, 2u);
    EXPECT_EQ(cfg.maxFailures, 7u);
    EXPECT_EQ(cfg.lerOptions().threads, 2u);
    EXPECT_EQ(cfg.lerOptions().maxFailures, 7u);
    EXPECT_EQ(cfg.propHuntOptions(9).seed, 9u);
    EXPECT_EQ(cfg.propHuntOptions(9).threads, 2u);
    EXPECT_EQ(cfg.satTimeoutSeconds, 1.5);
    EXPECT_EQ(cfg.propHuntOptions(9).satTimeoutSeconds, 1.5);
}

TEST(Config, RejectsMalformedValues)
{
    // Each has a silent misreading: 20k as 20 shots, -1 as 2^64-1
    // failures, sixty as a 0 s MaxSAT timeout.
    const std::pair<const char *, const char *> bad[] = {
        {"PROPHUNT_SHOTS", "20k"},
        {"PROPHUNT_MAX_FAILURES", "-1"},
        {"PROPHUNT_SAT_TIMEOUT", "sixty"},
    };
    for (const auto &[name, value] : bad) {
        ::setenv(name, value, 1);
        try {
            api::Config::fromEnv();
            ADD_FAILURE() << name << "=" << value << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << e.what();
        }
        ::unsetenv(name);
    }

    // An empty value means unset.
    ::setenv("PROPHUNT_SHOTS", "", 1);
    ::setenv("PROPHUNT_FULL", "", 1);
    api::Config cfg = api::Config::fromEnv();
    ::unsetenv("PROPHUNT_SHOTS");
    ::unsetenv("PROPHUNT_FULL");
    EXPECT_EQ(cfg.shots, api::Config{}.shots);
    EXPECT_FALSE(cfg.full);

    const char *argv_in[] = {"prog", "--shots", "20k"};
    char *argv[3];
    for (int i = 0; i < 3; ++i) {
        argv[i] = const_cast<char *>(argv_in[i]);
    }
    int argc = 3;
    try {
        cfg.applyArgs(argc, argv);
        ADD_FAILURE() << "--shots 20k was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("--shots"), std::string::npos)
            << e.what();
    }
}

TEST(Config, DefaultThreadsMeanHardwareConcurrency)
{
    api::Config cfg;
    EXPECT_EQ(cfg.threads, 0u);
    EXPECT_EQ(decoder::LerOptions{}.threads, 0u)
        << "0 = hardware concurrency is the single default";
}

TEST(Config, ApplyArgsStripsRecognizedFlags)
{
    const char *argv_in[] = {"prog",      "--threads", "3",  "keep",
                             "--shots",   "999",       "--max-failures",
                             "11",        "tail"};
    char *argv[9];
    for (int i = 0; i < 9; ++i) {
        argv[i] = const_cast<char *>(argv_in[i]);
    }
    int argc = 9;
    api::Config cfg;
    cfg.applyArgs(argc, argv);
    EXPECT_EQ(cfg.threads, 3u);
    EXPECT_EQ(cfg.shots, 999u);
    EXPECT_EQ(cfg.maxFailures, 11u);
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "keep");
    EXPECT_STREQ(argv[2], "tail");
}

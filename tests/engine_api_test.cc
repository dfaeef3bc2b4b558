/**
 * @file
 * Tests for the prophunt::api engine surface: decoder registry
 * round-trips, artifact-cache determinism, async submission, optimize
 * requests, the api::Config layer, and SPRT adaptive sweeps.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "api/config.h"
#include "api/engine.h"
#include "api/sprt.h"
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
    for (const char *name : {"union_find", "matching", "bp_osd"}) {
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
    // The names are fixed; the test-only MLE oracle is not one of them.
    SmallModel m = smallModel();
    EXPECT_THROW(decoder::Registry::make("mle", m.dem, m.circuit),
                 std::invalid_argument);
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
            decoder::measureMemoryLer(schedule, 1,
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

} // namespace

TEST(Engine, MatchesMeasureMemoryLerBitForBit)
{
    api::Engine engine;
    api::LerRequest req = d3Request(1);
    api::LerResult viaEngine = engine.run(req);
    decoder::LerOptions opts;
    opts.threads = 1;
    decoder::MemoryLer direct = decoder::measureMemoryLer(
        req.schedule, 3, req.noise, "union_find", 4000, 77, opts);
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
    EXPECT_EQ(r.telemetry.reusedShots, 0u);
    EXPECT_EQ(r.telemetry.coalescedRequests, 0u);
    EXPECT_EQ(r.telemetry.workSteals, 0u);
    EXPECT_EQ(r.telemetry.queueDepth, 0u);
    api::Engine::CacheStats stats = engine.cacheStats();
    EXPECT_EQ(stats.circuitEntries, 0u);
    EXPECT_EQ(stats.demEntries, 0u);

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
        EXPECT_EQ(pt.decision, api::SprtDecision::None);
        EXPECT_EQ(pt.telemetry.shots, 0u);
        EXPECT_EQ(pt.telemetry.cacheMisses, 0u);
    }
    EXPECT_EQ(sr.telemetry.shots, 0u);
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
    api::EngineOptions cached;
    api::EngineOptions uncached;
    uncached.cacheEnabled = false;
    api::Engine cachedEngine(cached);
    api::Engine uncachedEngine(uncached);

    api::LerResult reference = cachedEngine.run(d3Request(1));
    for (std::size_t threads : {1u, 2u, 3u}) {
        api::LerRequest req = d3Request(threads);
        api::LerResult a = cachedEngine.run(req);
        api::LerResult b = uncachedEngine.run(req);
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

    engine.clearCache();
    stats = engine.cacheStats();
    EXPECT_EQ(stats.demEntries, 0u);
    EXPECT_EQ(stats.circuitEntries, 0u);
}

TEST(Engine, CacheDisabledNeverHits)
{
    api::EngineOptions opts;
    opts.cacheEnabled = false;
    api::Engine engine(opts);
    engine.run(d3Request(1));
    api::LerResult second = engine.run(d3Request(1));
    EXPECT_EQ(second.telemetry.cacheHits, 0u);
    EXPECT_GT(second.telemetry.cacheMisses, 0u);
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
    EXPECT_EQ(r.telemetry.cacheMisses, 2u)
        << "one DEM miss per basis; the circuits are shared";
    EXPECT_EQ(engine.cacheStats().demEntries, 2 * demEntries);
}

TEST(Engine, CrossRequestShotReuseIsExactAndMonotone)
{
    // An identical re-run must be satisfied from the decode service's
    // recorded shard tallies: bit-identical counts, every shot reused,
    // and the service-lifetime reuse counter grows monotonically.
    api::Engine engine;
    api::LerResult first = engine.run(d3Request(1));
    EXPECT_EQ(first.telemetry.reusedShots, 0u);
    EXPECT_EQ(engine.serviceStats().reusedShots, 0u);

    api::LerResult second = engine.run(d3Request(1));
    EXPECT_EQ(second.memory.z.failures, first.memory.z.failures);
    EXPECT_EQ(second.memory.x.failures, first.memory.x.failures);
    EXPECT_EQ(second.memory.z.shots, first.memory.z.shots);
    EXPECT_EQ(second.memory.x.shots, first.memory.x.shots);
    EXPECT_EQ(second.telemetry.shots, 8000u);
    EXPECT_EQ(second.telemetry.reusedShots, 8000u)
        << "both bases of an identical request must reuse recorded shots";
    EXPECT_EQ(engine.serviceStats().reusedShots, 8000u);

    api::LerResult third = engine.run(d3Request(1));
    EXPECT_EQ(third.telemetry.reusedShots, 8000u);
    EXPECT_EQ(engine.serviceStats().reusedShots, 16000u);

    // A different seed is a different sample stream: no reuse, and the
    // lifetime counter must not move.
    api::LerRequest fresh = d3Request(1);
    fresh.seed = 78;
    api::LerResult other = engine.run(fresh);
    EXPECT_EQ(other.telemetry.reusedShots, 0u);
    EXPECT_EQ(engine.serviceStats().reusedShots, 16000u);
}

TEST(Engine, ShotReuseEvictionUnderFifoTallyBound)
{
    // Each basis records its own tally stream, so a bound of 1 makes
    // the X run evict the Z tallies and vice versa: a re-run reuses
    // nothing. A bound of 2 holds both streams and reuses everything.
    api::EngineOptions tight;
    tight.service.maxTallyKeys = 1;
    api::Engine small(tight);
    api::LerResult ref = small.run(d3Request(1));
    api::LerResult rerun = small.run(d3Request(1));
    EXPECT_EQ(rerun.telemetry.reusedShots, 0u);
    EXPECT_EQ(rerun.memory.z.failures, ref.memory.z.failures);
    EXPECT_EQ(rerun.memory.x.failures, ref.memory.x.failures);

    api::EngineOptions roomy;
    roomy.service.maxTallyKeys = 2;
    api::Engine big(roomy);
    big.run(d3Request(1));
    api::LerResult kept = big.run(d3Request(1));
    EXPECT_EQ(kept.telemetry.reusedShots, 8000u);
    EXPECT_EQ(kept.memory.z.failures, ref.memory.z.failures);
    EXPECT_EQ(kept.memory.x.failures, ref.memory.x.failures);
}

TEST(Engine, ShotReuseDisabledThroughServiceOptions)
{
    api::EngineOptions opts;
    opts.service.reuseShots = false;
    api::Engine engine(opts);
    api::LerResult first = engine.run(d3Request(1));
    api::LerResult second = engine.run(d3Request(1));
    EXPECT_EQ(second.telemetry.reusedShots, 0u);
    EXPECT_EQ(second.memory.z.failures, first.memory.z.failures);
    EXPECT_EQ(second.memory.x.failures, first.memory.x.failures);
    EXPECT_EQ(engine.serviceStats().reusedShots, 0u);
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
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3, 3e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 2000;
    sweep.seed = 5;
    sweep.ler.threads = 1;
    api::SweepResult result = engine.run(sweep);
    ASSERT_EQ(result.points.size(), 2u);

    for (std::size_t i = 0; i < sweep.ps.size(); ++i) {
        api::LerRequest req(sweep.schedule);
        req.rounds = 3;
        req.noise = sim::NoiseModel::uniform(sweep.ps[i]);
        req.decoder = "union_find";
        req.shots = 2000;
        req.seed = 5;
        req.ler.threads = 1;
        api::LerResult point = engine.run(req);
        EXPECT_EQ(result.points[i].memory.z.failures,
                  point.memory.z.failures);
        EXPECT_EQ(result.points[i].memory.x.failures,
                  point.memory.x.failures);
        EXPECT_EQ(result.points[i].decision, api::SprtDecision::None);
    }
    EXPECT_EQ(result.totalShots(), 8000u);
}

TEST(Engine, SweepRejectsSprtWithoutDecisionLer)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 100;
    sweep.sprt.enabled = true; // decisionLer left at its 0.0 default
    try {
        engine.run(sweep);
        FAIL() << "expected std::invalid_argument at admission";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("decisionLer"),
                  std::string::npos)
            << "error should say which field to set: " << e.what();
    }
}

TEST(Engine, SweepRejectsShardIndexOutsideCount)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 100;
    sweep.shard.index = 3;
    sweep.shard.count = 2;
    EXPECT_THROW(engine.run(sweep), std::invalid_argument);
}

TEST(Engine, SweepCancelledBeforeStartReturnsEmptyResult)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3, 3e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 2000;
    std::atomic<bool> cancel{true};
    sweep.cancel = &cancel;
    api::SweepResult result = engine.run(sweep);
    EXPECT_TRUE(result.points.empty())
        << "a pre-cancelled sweep does no work";
    EXPECT_EQ(result.totalShots(), 0u);
}

TEST(Engine, SweepCancelMidRunReturnsCompletedPrefix)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1e-3, 2e-3, 3e-3, 4e-3};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 4000;
    sweep.seed = 5;
    sweep.ler.threads = 1;
    api::SweepResult oracle = engine.run(sweep);

    std::atomic<bool> cancel{false};
    sweep.cancel = &cancel;
    std::thread flipper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        cancel.store(true);
    });
    api::SweepResult truncated = engine.run(sweep);
    flipper.join();

    // Whatever prefix completed must match the uninterrupted run point
    // for point — cancellation truncates, it never perturbs.
    ASSERT_LE(truncated.points.size(), oracle.points.size());
    for (std::size_t i = 0; i < truncated.points.size(); ++i) {
        EXPECT_EQ(truncated.points[i].p, oracle.points[i].p);
        EXPECT_EQ(truncated.points[i].memory.z.shots,
                  oracle.points[i].memory.z.shots);
        EXPECT_EQ(truncated.points[i].memory.z.failures,
                  oracle.points[i].memory.z.failures);
        EXPECT_EQ(truncated.points[i].memory.x.shots,
                  oracle.points[i].memory.x.shots);
        EXPECT_EQ(truncated.points[i].memory.x.failures,
                  oracle.points[i].memory.x.failures);
    }
}

TEST(Engine, SweepCancelWithSprtKeepsContiguousChunkPrefix)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1.6e-2};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 8000;
    sweep.seed = 29;
    sweep.ler.threads = 1;
    sweep.sprt.enabled = true;
    sweep.sprt.decisionLer = 0.02;
    sweep.sprt.chunkShots = 512;
    api::SweepResult oracle = engine.run(sweep);

    std::atomic<bool> cancel{false};
    sweep.cancel = &cancel;
    std::thread flipper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        cancel.store(true);
    });
    api::SweepResult truncated = engine.run(sweep);
    flipper.join();

    // An in-progress SPRT point keeps a contiguous chunk prefix: its
    // accounted shots are a prefix of the oracle's shot count.
    for (const api::SweepPointResult &pt : truncated.points) {
        EXPECT_LE(pt.memory.z.shots, oracle.points[0].memory.z.shots);
        EXPECT_LE(pt.memory.x.shots, oracle.points[0].memory.x.shots);
        EXPECT_LE(pt.memory.z.failures, oracle.points[0].memory.z.failures);
        EXPECT_LE(pt.memory.x.failures, oracle.points[0].memory.x.failures);
    }
}

TEST(Engine, SubmitReturnsSameResultAsRun)
{
    api::Engine engine;
    api::LerResult sync = engine.run(d3Request(1));
    std::future<api::LerResult> f1 = engine.submit(d3Request(1));
    std::future<api::LerResult> f2 = engine.submit(d3Request(2));
    api::LerResult r1 = f1.get();
    api::LerResult r2 = f2.get();
    EXPECT_EQ(r1.memory.z.failures, sync.memory.z.failures);
    EXPECT_EQ(r1.memory.x.failures, sync.memory.x.failures);
    EXPECT_EQ(r2.memory.z.failures, sync.memory.z.failures);
    EXPECT_EQ(r2.memory.x.failures, sync.memory.x.failures);
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

void
expectOutcomesEqual(const core::OptimizeResult &a,
                    const core::OptimizeResult &b)
{
    EXPECT_TRUE(a.finalSchedule() == b.finalSchedule());
    ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
    for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
        EXPECT_TRUE(a.snapshots[i] == b.snapshots[i]);
    }
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_EQ(a.history[i].ambiguousFound, b.history[i].ambiguousFound);
        EXPECT_EQ(a.history[i].candidatesEnumerated,
                  b.history[i].candidatesEnumerated);
        EXPECT_EQ(a.history[i].changesVerified,
                  b.history[i].changesVerified);
        EXPECT_EQ(a.history[i].changesApplied, b.history[i].changesApplied);
        EXPECT_EQ(a.history[i].depth, b.history[i].depth);
        EXPECT_EQ(a.history[i].minLogicalWeight,
                  b.history[i].minLogicalWeight);
        EXPECT_EQ(a.history[i].solveWeights, b.history[i].solveWeights);
    }
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

TEST(EngineOptimize, CancellationStopsOptimize)
{
    // Parity with LerRequest::cancel.
    code::SurfaceCode s(3);
    api::Engine engine;
    std::atomic<bool> cancel{true};
    api::OptimizeRequest req(circuit::poorSurfaceSchedule(s));
    req.rounds = 3;
    req.options = cheapMaxSatOptions(3);
    req.cancel = &cancel;
    api::OptimizeResult res = engine.run(req);
    EXPECT_TRUE(res.finalSchedule() == req.start);
    EXPECT_TRUE(res.outcome.history.empty());
}

TEST(EngineOptimize, SubmitMatchesRun)
{
    code::SurfaceCode s(3);
    api::Engine engine;
    auto makeReq = [&]() {
        api::OptimizeRequest req(circuit::poorSurfaceSchedule(s));
        req.rounds = 3;
        req.options = cheapMaxSatOptions(13);
        return req;
    };
    api::OptimizeResult sync = engine.run(makeReq());
    std::future<api::OptimizeResult> fut = engine.submit(makeReq());
    api::OptimizeResult async = fut.get();
    expectOutcomesEqual(sync.outcome, async.outcome);
}

// --- SPRT -------------------------------------------------------------------

TEST(Sprt, InvalidOptionsThrow)
{
    api::SprtOptions opts;
    opts.decisionLer = 0.02;
    opts.margin = 1.0;
    EXPECT_THROW(api::SprtTest{opts}, std::invalid_argument);
    opts.margin = 2.0;
    opts.decisionLer = 0.0;
    EXPECT_THROW(api::SprtTest{opts}, std::invalid_argument);
    opts.decisionLer = 0.02;
    opts.alpha = 0.0;
    EXPECT_THROW(api::SprtTest{opts}, std::invalid_argument);
}

TEST(Sprt, DecidesObviousRates)
{
    api::SprtOptions opts;
    opts.decisionLer = 0.02;
    opts.minShots = 100;
    api::SprtTest test(opts);
    // 30% failures over 2000 trials: far above the 4% upper hypothesis.
    EXPECT_EQ(test.evaluate(2000, 600), api::SprtDecision::Above);
    // Zero failures over 2000 trials: far below the 1% lower hypothesis.
    EXPECT_EQ(test.evaluate(2000, 0), api::SprtDecision::Below);
    // Right at the threshold: still inside the indifference zone.
    EXPECT_EQ(test.evaluate(2000, 40), api::SprtDecision::Undecided);
    // Before minShots nothing is decided.
    EXPECT_EQ(test.evaluate(50, 0), api::SprtDecision::Undecided);
}

TEST(Sprt, FixedDecisionRule)
{
    api::SprtOptions opts;
    opts.decisionLer = 0.02;
    EXPECT_EQ(api::SprtTest::fixedDecision(0.5, opts),
              api::SprtDecision::Above);
    EXPECT_EQ(api::SprtTest::fixedDecision(0.001, opts),
              api::SprtDecision::Below);
    opts.decisionLer = 0.0;
    EXPECT_EQ(api::SprtTest::fixedDecision(0.5, opts),
              api::SprtDecision::None);
}

TEST(Sprt, AdaptiveSweepSameDecisionsFewerShots)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    // LER(d=3 N-Z) is ~1e-3 at p=1e-3 and ~0.2 at p=1.6e-2 — both far
    // outside the [0.01, 0.04] indifference zone of the 0.02 threshold.
    sweep.ps = {1e-3, 1.6e-2};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 20000;
    sweep.seed = 13;
    sweep.ler.threads = 1;
    sweep.sprt.decisionLer = 0.02;

    sweep.sprt.enabled = false;
    api::SweepResult fixed = engine.run(sweep);
    sweep.sprt.enabled = true;
    api::SweepResult adaptive = engine.run(sweep);

    ASSERT_EQ(fixed.points.size(), adaptive.points.size());
    for (std::size_t i = 0; i < fixed.points.size(); ++i) {
        EXPECT_NE(fixed.points[i].decision, api::SprtDecision::None);
        EXPECT_EQ(fixed.points[i].decision, adaptive.points[i].decision)
            << "p=" << fixed.points[i].p;
    }
    EXPECT_EQ(fixed.points[0].decision, api::SprtDecision::Below);
    EXPECT_EQ(fixed.points[1].decision, api::SprtDecision::Above);
    EXPECT_LT(adaptive.totalShots(), fixed.totalShots())
        << "SPRT must save shots on well-separated points";
}

TEST(Sprt, AdaptiveSweepDeterministicAcrossThreadCounts)
{
    api::Engine engine;
    api::SweepRequest sweep(d3Schedule());
    sweep.rounds = 3;
    sweep.ps = {1.6e-2};
    sweep.decoder = "union_find";
    sweep.shotsPerPoint = 8000;
    sweep.seed = 29;
    sweep.sprt.enabled = true;
    sweep.sprt.decisionLer = 0.02;

    sweep.ler.threads = 1;
    api::SweepResult one = engine.run(sweep);
    for (std::size_t threads : {2u, 3u}) {
        sweep.ler.threads = threads;
        api::SweepResult many = engine.run(sweep);
        EXPECT_EQ(many.points[0].memory.z.failures,
                  one.points[0].memory.z.failures);
        EXPECT_EQ(many.points[0].memory.x.failures,
                  one.points[0].memory.x.failures);
        EXPECT_EQ(many.totalShots(), one.totalShots());
        EXPECT_EQ(many.points[0].decision, one.points[0].decision);
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
    EXPECT_EQ(cfg.propHuntOptions(9).ler.threads, 2u);
    EXPECT_EQ(cfg.satTimeoutSeconds, 1.5);
    EXPECT_EQ(cfg.propHuntOptions(9).satTimeoutSeconds, 1.5);
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

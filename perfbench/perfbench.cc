/**
 * @file
 * perfbench: the workload binary behind perfbench/run.py.
 *
 * One invocation is one fresh process running one workload against the
 * library's public API, and printing one JSON object on stdout. run.py
 * starts several such processes per benchmark run, checks their outputs
 * against each other, and turns them into metrics.
 *
 *   perfbench --workload W --seed N --mode run|trace --seconds S
 *             [--process P] [--reference] [--smoke] [--spans PATH]
 *
 * --mode run    Cold first request (its end, measured from process start,
 *               is the set-up time), then warm requests for S seconds.
 *               --reference adds the untimed threads=1 reruns the output
 *               checks compare against. After its timed window the
 *               optimizer workload scores its start and final schedules
 *               with LerRequests. Process P of a run draws its own
 *               LerRequest seeds.
 * --mode trace  Spans around every layer call made from here: the
 *               optimizer's iterations and the LER path's per-basis builds
 *               and per-shard sample/decode calls are replayed on one
 *               thread, once untraced and once traced. Spans are kept in
 *               memory and written to PATH at the end.
 * --smoke       Tiny inputs, every output check still on.
 *
 * Workloads (all start from the coloration schedule):
 *   ler_rqt54     LerRequest, rqt54, 4 rounds, bp_osd, p=1e-3, 16384 shots
 *   ler_surface7  LerRequest, surface d=7, 7 rounds, union_find, p=2e-3,
 *                 100000 shots
 *   opt_surface5  OptimizeRequest, surface d=5, 5 rounds, 6 iterations x
 *                 200 samples; scored by union_find LerRequests at p=2e-3
 *   serve_lp39    2 closed-loop clients on one Engine, LerRequests of lp39,
 *                 3 rounds, bp_osd, p=2e-3, 4000 shots, distinct seeds
 * Shot counts are per memory basis.
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "circuit/coloration.h"
#include "circuit/sm_circuit.h"
#include "code/codes.h"
#include "decoder/logical_error.h"
#include "decoder/registry.h"
#include "prophunt/changes.h"
#include "prophunt/minweight.h"
#include "prophunt/pruning.h"
#include "prophunt/subgraph.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/parallel_sampler.h"
#include "sim/rng.h"

using namespace prophunt;

namespace {

using Clock = std::chrono::steady_clock;

/** Captured during static initialization: the workload's start in this
 * process, before any library call. */
const Clock::time_point kProcessStart = Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- JSON output -------------------------------------------------------------

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += (char)c;
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += (char)c;
        }
    }
    return out + "\"";
}

/** Builder of one flat JSON object; numbers keep all their digits. */
class JsonObject
{
  public:
    JsonObject &
    num(const char *key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }

    JsonObject &
    count(const char *key, uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &
    str(const char *key, const std::string &v)
    {
        return raw(key, quoted(v));
    }

    JsonObject &
    raw(const char *key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ",") + quoted(key) + ":" + json;
        return *this;
    }

    std::string
    text() const
    {
        return "{" + body_ + "}";
    }

  private:
    std::string body_;
};

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        out += (i ? "," : "") + items[i];
    }
    return out + "]";
}

// --- Tracing -----------------------------------------------------------------

/** One timed layer call. Times are seconds since process start. */
struct Span
{
    uint32_t id = 0;
    uint32_t parent = 0; ///< 0 = root.
    uint32_t request = 0;
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    std::vector<std::pair<std::string, double>> counts;
};

/**
 * In-memory span recorder. Spans nest per thread; a disabled tracer
 * records nothing, which is what the untraced comparison runs use.
 */
class Tracer
{
  public:
    bool enabled = false;

    uint32_t
    open(const char *name, uint32_t request)
    {
        Span s;
        s.name = name;
        s.request = request;
        s.parent = stack_.empty() ? 0 : stack_.back();
        s.t0 = secondsSince(kProcessStart);
        std::lock_guard<std::mutex> lock(mutex_);
        s.id = (uint32_t)spans_.size() + 1;
        stack_.push_back(s.id);
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    void
    close(uint32_t id, std::vector<std::pair<std::string, double>> counts)
    {
        double t1 = secondsSince(kProcessStart);
        stack_.pop_back();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[id - 1].t1 = t1;
        spans_[id - 1].counts = std::move(counts);
    }

    /** Write every span as one JSON line; returns false on I/O failure. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            return false;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Span &s : spans_) {
            JsonObject counts;
            for (const auto &[k, v] : s.counts) {
                counts.num(k.c_str(), v);
            }
            JsonObject o;
            o.count("id", s.id)
                .count("parent", s.parent)
                .count("request", s.request)
                .str("name", s.name)
                .num("t0", s.t0)
                .num("t1", s.t1)
                .raw("counts", counts.text());
            std::fprintf(f, "%s\n", o.text().c_str());
        }
        return std::fclose(f) == 0;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    static thread_local std::vector<uint32_t> stack_;
};

thread_local std::vector<uint32_t> Tracer::stack_;

Tracer gTracer;

/** RAII span; a no-op while the tracer is disabled. */
class Scope
{
  public:
    Scope(const char *name, uint32_t request = 0)
        : id_(gTracer.enabled ? gTracer.open(name, request) : 0)
    {
    }
    ~Scope()
    {
        if (id_ != 0) {
            gTracer.close(id_, std::move(counts_));
        }
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void
    count(const char *key, double v)
    {
        if (id_ != 0) {
            counts_.emplace_back(key, v);
        }
    }

  private:
    uint32_t id_;
    std::vector<std::pair<std::string, double>> counts_;
};

// --- Workload inputs ---------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    std::string mode = "run";
    double seconds = 10.0;
    bool reference = false;
    bool smoke = false;
    std::size_t process = 0; ///< Index of this process within the run.
    std::string spans;
};

/** An LER request shape (shots per basis). */
struct LerShape
{
    std::size_t rounds;
    const char *decoder;
    double p;
    std::size_t shots;
};

struct Workload
{
    code::CssCode (*makeCode)();
    LerShape ler; ///< The request (ler_*, serve_*) or the scoring (opt_*).
    bool optimize = false;
    bool serve = false;
};

Workload
workloadFor(const Args &a)
{
    // Smoke sizes keep every code path (two shards per basis, at least
    // one optimizer iteration) at a fraction of the cost.
    const bool s = a.smoke;
    if (a.workload == "ler_rqt54") {
        return {code::benchmarkRqt54,
                {4, "bp_osd", 1e-3, s ? 5000u : 16384u}};
    }
    if (a.workload == "ler_surface7") {
        return {[] { return code::benchmarkSurface(7); },
                {7, "union_find", 2e-3, s ? 5000u : 100000u}};
    }
    if (a.workload == "opt_surface5") {
        return {[] { return code::benchmarkSurface(5); },
                {5, "union_find", 2e-3, s ? 5000u : 200000u},
                true};
    }
    if (a.workload == "serve_lp39") {
        return {code::benchmarkLp39, {3, "bp_osd", 2e-3, s ? 5000u : 4000u},
                false, true};
    }
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

/**
 * The optimizer's seed. It is the same for every run, not derived from
 * --seed: the seed picks which ambiguous subgraphs the search finds, so
 * it changes both the work of an OptimizeRequest and its final schedule
 * (over five derived seeds on a 4-vCPU Xeon VM the request time spread by
 * 11% and the final LER by 25%, interquartile over median), which would
 * drown any change in the code. --seed still drives every LerRequest, the scoring ones
 * included.
 */
constexpr uint64_t kOptimizerSeed = 1;

/** Seed k of this process's LerRequest stream. Streams differ between the
 * processes of a run, so LERs pooled over processes count distinct shots. */
uint64_t
streamSeed(const Args &a, std::size_t k)
{
    return sim::shardSeed(sim::shardSeed(a.seed, 1 + a.process), k);
}

api::LerRequest
lerRequest(const circuit::SmSchedule &schedule, const LerShape &shape,
           uint64_t seed, std::size_t threads)
{
    api::LerRequest req(schedule);
    req.rounds = shape.rounds;
    req.noise = sim::NoiseModel::uniform(shape.p);
    req.decoder = shape.decoder;
    req.shots = shape.shots;
    req.seed = seed;
    req.ler.threads = threads;
    return req;
}

api::OptimizeRequest
optimizeRequest(const circuit::SmSchedule &start, const Workload &w,
                const Args &a)
{
    api::OptimizeRequest req(start);
    req.rounds = w.ler.rounds;
    // The api::Config defaults (6 iterations x 200 samples); the classic
    // MaxSAT loop, since req.portfolio stays disabled.
    req.options.iterations = a.smoke ? 1 : 6;
    req.options.samplesPerIteration = a.smoke ? 20 : 200;
    req.options.seed = kOptimizerSeed;
    return req;
}

// --- Request records ---------------------------------------------------------

/** What one request returned; run.py checks and aggregates these. */
struct Record
{
    std::string phase; ///< cold, warm, reference, score_start, ...
    std::size_t index = 0;
    double wall = 0.0;
    std::size_t zShots = 0, zFailures = 0, xShots = 0, xFailures = 0;
    std::size_t reusedShots = 0;
    std::size_t iterations = 0;
    std::size_t satTimeouts = 0;
    uint64_t scheduleHash = 0;
    std::string error;

    std::string
    json() const
    {
        JsonObject o;
        o.str("phase", phase)
            .count("index", index)
            .num("wall_s", wall)
            .count("z_shots", zShots)
            .count("z_failures", zFailures)
            .count("x_shots", xShots)
            .count("x_failures", xFailures)
            .count("reused_shots", reusedShots)
            .count("iterations", iterations)
            .count("sat_timeouts", satTimeouts)
            .str("schedule_hash", std::to_string(scheduleHash))
            .str("error", error);
        return o.text();
    }
};

void
fillLer(Record &r, const api::LerResult &res)
{
    r.zShots = res.memory.z.shots;
    r.zFailures = res.memory.z.failures;
    r.xShots = res.memory.x.shots;
    r.xFailures = res.memory.x.failures;
    r.reusedShots = res.telemetry.reusedShots;
}

/** Time @p fn into a record of @p phase; exceptions become its error. */
template <class Fn>
Record
timed(const char *phase, Fn &&fn)
{
    Record r;
    r.phase = phase;
    Clock::time_point t0 = Clock::now();
    try {
        fn(r);
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    r.wall = secondsSince(t0);
    return r;
}

Record
runLer(const char *phase, api::Engine &engine, const api::LerRequest &req)
{
    return timed(phase, [&](Record &r) { fillLer(r, engine.run(req)); });
}

/** One LerRequest on an Engine of its own, so the decode service's tally
 * reuse can never answer a repeated fixed-seed request. */
Record
runLerFresh(const char *phase, const api::LerRequest &req)
{
    api::Engine engine;
    return runLer(phase, engine, req);
}

Record
runOptimize(const char *phase, const api::OptimizeRequest &req,
            api::OptimizeResult *out = nullptr)
{
    api::Engine engine;
    return timed(phase, [&](Record &r) {
        api::OptimizeResult res = engine.run(req);
        r.iterations = res.outcome.history.size();
        r.scheduleHash = api::hashSchedule(res.finalSchedule());
        for (const auto &rec : res.outcome.history) {
            for (const auto &st : rec.solveStats) {
                r.satTimeouts += st.timedOut ? 1 : 0;
            }
        }
        if (out != nullptr) {
            *out = std::move(res);
        }
    });
}

// --- Environment stamp ---------------------------------------------------------

bool
envSet(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && v[0] != '\0';
}

/** The BP lane kernel tier in effect: the library's runtime selection rule
 * (CPU support, stepped down by PROPHUNT_NO_AVX512 / PROPHUNT_NO_AVX2). */
std::string
simdTier()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    if (__builtin_cpu_supports("avx512f") && !envSet("PROPHUNT_NO_AVX512") &&
        !envSet("PROPHUNT_NO_AVX2")) {
        return "avx512";
    }
    if (__builtin_cpu_supports("avx2") && !envSet("PROPHUNT_NO_AVX2")) {
        return "avx2";
    }
#endif
    return "generic";
}

std::string
buildStamp()
{
    JsonObject o;
    o.str("build_type", PERFBENCH_BUILD_TYPE)
        .str("compiler", PERFBENCH_COMPILER)
        .str("cxx_flags", PERFBENCH_CXX_FLAGS)
        .str("simd_tier", simdTier())
        .count("threads", sim::resolveThreads(0));
    return o.text();
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return (double)ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

// --- Timed runs ------------------------------------------------------------------

struct RunOutput
{
    double setupSeconds = 0.0;
    double windowSeconds = 0.0;
    std::vector<Record> records;
};

/** ler_*: a new Engine per request, sequential. */
RunOutput
runLerWorkload(const Args &a, const Workload &w,
               const circuit::SmSchedule &schedule)
{
    RunOutput out;
    api::LerRequest req = lerRequest(schedule, w.ler, streamSeed(a, 0), 0);
    out.records.push_back(runLerFresh("cold", req));
    out.setupSeconds = secondsSince(kProcessStart);
    Clock::time_point t0 = Clock::now();
    do {
        out.records.push_back(runLerFresh("warm", req));
    } while (secondsSince(t0) < a.seconds);
    out.windowSeconds = secondsSince(t0);
    if (a.reference) {
        req.ler.threads = 1;
        out.records.push_back(runLerFresh("reference", req));
    }
    return out;
}

/** opt_*: a new Engine per OptimizeRequest; then the start and final
 * schedules are scored with LerRequests outside the timed window. */
RunOutput
runOptWorkload(const Args &a, const Workload &w,
               const circuit::SmSchedule &start)
{
    RunOutput out;
    api::OptimizeRequest req = optimizeRequest(start, w, a);
    api::OptimizeResult first;
    out.records.push_back(runOptimize("cold", req, &first));
    out.setupSeconds = secondsSince(kProcessStart);
    Clock::time_point t0 = Clock::now();
    do {
        out.records.push_back(runOptimize("warm", req));
    } while (secondsSince(t0) < a.seconds);
    out.windowSeconds = secondsSince(t0);
    if (!out.records.front().error.empty()) {
        return out;
    }
    // Both schedules are scored on the same seed, so their sampling noise
    // is shared and the LER gain is steadier.
    const uint64_t seed = streamSeed(a, 0);
    out.records.push_back(
        runLerFresh("score_start", lerRequest(start, w.ler, seed, 0)));
    out.records.push_back(runLerFresh(
        "score_final", lerRequest(first.finalSchedule(), w.ler, seed, 0)));
    return out;
}

/** Telemetry counts of an api.request span. */
void
countTelemetry(Scope &span, const api::Telemetry &t)
{
    span.count("shots", (double)t.shots);
    span.count("reused_shots", (double)t.reusedShots);
    span.count("coalesced", (double)t.coalescedRequests);
    span.count("steals", (double)t.workSteals);
    span.count("queue_depth", (double)t.queueDepth);
}

/**
 * serve_*: one shared Engine, two closed-loop clients. Request i uses seed
 * i of the process's stream, so every request is distinct and a one-thread
 * rerun can recompute request i. Returns the next unused index.
 */
std::size_t
serveLoop(api::Engine &engine, const Args &a, const Workload &w,
          const circuit::SmSchedule &schedule, std::size_t first,
          std::size_t maxRequests, double seconds,
          std::vector<Record> &records)
{
    std::atomic<std::size_t> next{first};
    std::mutex recordsMutex;
    Clock::time_point t0 = Clock::now();
    auto client = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= first + maxRequests || secondsSince(t0) >= seconds) {
                return;
            }
            api::LerRequest req =
                lerRequest(schedule, w.ler, streamSeed(a, i), 0);
            Record r = timed("warm", [&](Record &rec) {
                Scope span("api.request", (uint32_t)i);
                api::LerResult res = engine.run(req);
                fillLer(rec, res);
                countTelemetry(span, res.telemetry);
            });
            r.index = i;
            std::lock_guard<std::mutex> lock(recordsMutex);
            records.push_back(std::move(r));
        }
    };
    std::thread second(client);
    client();
    second.join();
    return std::min(next.load(), first + maxRequests);
}

RunOutput
runServeWorkload(const Args &a, const Workload &w,
                 const circuit::SmSchedule &schedule)
{
    RunOutput out;
    api::Engine engine;
    Record cold = runLer(
        "cold", engine, lerRequest(schedule, w.ler, streamSeed(a, 0), 0));
    out.records.push_back(cold);
    out.setupSeconds = secondsSince(kProcessStart);
    Clock::time_point t0 = Clock::now();
    serveLoop(engine, a, w, schedule, 1, (std::size_t)-1 / 2, a.seconds,
              out.records);
    out.windowSeconds = secondsSince(t0);
    if (a.reference) {
        // Serial reruns of the first requests on a one-thread Engine:
        // coalesced concurrent serving must match them bit for bit.
        for (std::size_t i = 0; i < 4; ++i) {
            Record r = runLerFresh(
                "reference",
                lerRequest(schedule, w.ler, streamSeed(a, i), 1));
            r.index = i;
            out.records.push_back(r);
        }
    }
    return out;
}

// --- Traced runs: one-thread replays of the layer calls ------------------------

/**
 * Replay the LER path's layer calls for the given request seeds on one
 * thread: per basis, circuit build, DEM build and decoder prototype once;
 * per shard, sampling, decoding, and (for comparison) a row transpose.
 * Seeding follows the Engine: memoryBasisSeed, then one stream per shard.
 * Returns the failures of request r in basis Z at [2r], X at [2r + 1].
 */
std::vector<std::size_t>
replayLer(const circuit::SmSchedule &schedule, const LerShape &shape,
          const std::vector<uint64_t> &seeds)
{
    std::vector<std::size_t> failures(seeds.size() * 2, 0);
    const sim::NoiseModel noise = sim::NoiseModel::uniform(shape.p);
    const decoder::DecoderSpec spec(shape.decoder);
    const std::size_t shard_shots =
        std::min(sim::kDefaultShardShots, shape.shots);
    const sim::ShardPlan plan{shape.shots, shard_shots};
    sim::FrameBatch frames;
    sim::SampleBatch rows;
    decoder::FrameShardScratch scratch;
    int b = 0;
    for (auto basis : {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
        std::optional<circuit::SmCircuit> circ;
        {
            Scope s("circuit.build");
            circ = circuit::buildMemoryCircuit(schedule, shape.rounds, basis);
        }
        std::optional<sim::Dem> dem;
        {
            Scope s("sim.dem_build");
            dem = sim::buildDem(*circ, noise);
        }
        std::unique_ptr<decoder::Decoder> dec;
        {
            Scope s("decoder.prototype");
            dec = decoder::Registry::make(spec, *dem, *circ);
        }
        for (std::size_t r = 0; r < seeds.size(); ++r) {
            const uint64_t master = decoder::memoryBasisSeed(seeds[r], basis);
            for (std::size_t shard = 0; shard < plan.numShards(); ++shard) {
                const std::size_t n = plan.shotsOf(shard);
                {
                    Scope s("sim.sample", (uint32_t)r);
                    sim::sampleDemFramesInto(
                        *dem, n, sim::shardSeed(master, shard), frames);
                    s.count("shots", (double)n);
                }
                {
                    Scope s("sim.transpose", (uint32_t)r);
                    sim::transposeView(frames.view(), rows);
                    s.count("shots", (double)n);
                }
                Scope s("decoder.decode", (uint32_t)r);
                std::size_t f = decoder::decodeFrameShard(*dec, frames,
                                                          scratch);
                failures[2 * r + b] += f;
                const decoder::PackedDecodeStats &st = scratch.stats;
                s.count("shots", (double)n);
                s.count("failures", (double)f);
                s.count("adapter_shots", (double)st.adapterShots);
                s.count("osd_shots", (double)st.osdShots);
                s.count("osd_s", (double)st.osdUs * 1e-6);
                s.count("lane_busy", (double)st.laneSlotsBusy);
                s.count("lane_total", (double)st.laneSlotsTotal);
            }
        }
        ++b;
    }
    return failures;
}

/** Ambiguous-subgraph sampling exactly as the optimizer seeds it: one RNG
 * stream per sample index, blocks of 32, index-order dedup, early exit at
 * block granularity. */
std::vector<core::Subgraph>
sampleAmbiguous(const sim::Dem &dem, std::size_t samples,
                std::size_t max_errors, std::size_t max_keep, uint64_t seed)
{
    constexpr std::size_t kSampleBlock = 32;
    core::SubgraphFinder finder(dem);
    std::vector<core::Subgraph> found;
    std::set<std::vector<uint32_t>> seen;
    for (std::size_t base = 0; base < samples && found.size() < max_keep;
         base += kSampleBlock) {
        std::size_t count = std::min(kSampleBlock, samples - base);
        std::vector<core::Subgraph> block;
        for (std::size_t i = 0; i < count; ++i) {
            sim::Rng rng(seed ^ ((base + i + 1) * 0x517cc1b727220a95ULL));
            block.push_back(finder.sample(rng, max_errors));
        }
        for (std::size_t i = 0; i < count && found.size() < max_keep; ++i) {
            if (!block[i].ambiguous) {
                continue;
            }
            std::vector<uint32_t> key = block[i].detectors;
            std::sort(key.begin(), key.end());
            if (seen.insert(std::move(key)).second) {
                found.push_back(std::move(block[i]));
            }
        }
    }
    return found;
}

/**
 * Replay every iteration of an optimizer run on one thread, starting each
 * from its snapshot, with the loop's seeding and budgets. Returns an error
 * message if a replayed iteration does not reproduce the recorded one.
 */
std::string
replayOptimizer(const api::OptimizeRequest &req,
                const core::OptimizeResult &res)
{
    const core::PropHuntOptions &o = req.options;
    const sim::NoiseModel noise = sim::NoiseModel::uniform(o.p);
    sim::Rng rng(o.seed);
    for (std::size_t iter = 0; iter < res.history.size(); ++iter) {
        Scope iterSpan("prophunt.iteration", (uint32_t)iter);
        circuit::SmSchedule current = res.snapshots[iter];
        struct Basis
        {
            circuit::MemoryBasis basis;
            std::optional<circuit::SmCircuit> circ;
            std::optional<sim::Dem> dem;
            std::vector<core::Subgraph> subgraphs;
        };
        std::vector<Basis> work;
        std::size_t ambiguous = 0;
        for (auto basis : {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
            Basis w{basis, {}, {}, {}};
            {
                Scope s("prophunt.dem_build");
                {
                    Scope c("circuit.build");
                    w.circ = circuit::buildMemoryCircuit(current, req.rounds,
                                                         basis);
                }
                Scope d("sim.dem_build");
                w.dem = sim::buildDem(*w.circ, noise);
            }
            Scope s("prophunt.subgraph");
            w.subgraphs = sampleAmbiguous(
                *w.dem, o.samplesPerIteration / 2, o.maxSubgraphErrors,
                o.maxAmbiguousPerIteration,
                o.seed ^ (iter * 2654435761u) ^
                    (basis == circuit::MemoryBasis::X ? 0xabcdu : 0));
            s.count("ambiguous", (double)w.subgraphs.size());
            ambiguous += w.subgraphs.size();
            work.push_back(std::move(w));
        }

        struct Plan
        {
            const Basis *bw;
            const core::Subgraph *sg;
            core::MinWeightResult mw;
            std::vector<core::CircuitChange> candidates;
            std::vector<core::VerifiedChange> verified;
        };
        std::vector<Plan> plans;
        for (const Basis &bw : work) {
            for (const core::Subgraph &sg : bw.subgraphs) {
                plans.push_back({&bw, &sg, {}, {}, {}});
            }
        }
        for (Plan &p : plans) {
            Scope s("sat.maxsat");
            p.mw = core::solveMinWeightLogical(*p.bw->dem, *p.sg, o.maxCost,
                                               o.satTimeoutSeconds);
            s.count("timed_out", p.mw.stats.timedOut ? 1.0 : 0.0);
        }
        std::size_t candidates = 0;
        for (Plan &p : plans) {
            if (!p.mw.found || p.mw.weight == 0) {
                continue;
            }
            Scope s("prophunt.enumerate");
            p.candidates = core::enumerateChanges(current, *p.bw->dem,
                                                  *p.bw->circ, p.mw.errors,
                                                  rng);
            s.count("candidates", (double)p.candidates.size());
            candidates += p.candidates.size();
        }
        std::size_t verified = 0;
        for (Plan &p : plans) {
            for (const core::CircuitChange &ch : p.candidates) {
                Scope s("prophunt.verify");
                auto vc = core::verifyChange(current, ch, p.sg->detectors,
                                             p.mw.errors, *p.bw->dem,
                                             req.rounds, p.bw->basis, noise);
                s.count("verified", vc ? 1.0 : 0.0);
                if (vc) {
                    p.verified.push_back(std::move(*vc));
                    ++verified;
                }
            }
        }
        std::size_t applied = 0;
        {
            Scope s("prophunt.apply");
            std::set<std::string> applied_keys;
            for (Plan &p : plans) {
                std::stable_sort(p.verified.begin(), p.verified.end(),
                                 [](const core::VerifiedChange &x,
                                    const core::VerifiedChange &y) {
                                     return x.depth < y.depth;
                                 });
                for (const core::VerifiedChange &vc : p.verified) {
                    if (applied_keys.count(vc.change.key())) {
                        break;
                    }
                    circuit::SmSchedule next = vc.change.apply(current);
                    if (!next.commutationValid() || !next.schedulable()) {
                        continue;
                    }
                    current = std::move(next);
                    applied_keys.insert(vc.change.key());
                    ++applied;
                    break;
                }
            }
            s.count("applied", (double)applied);
        }

        const core::IterationRecord &rec = res.history[iter];
        if (ambiguous != rec.ambiguousFound ||
            candidates != rec.candidatesEnumerated ||
            verified != rec.changesVerified ||
            applied != rec.changesApplied ||
            api::hashSchedule(current) !=
                api::hashSchedule(res.snapshots[iter + 1])) {
            return "optimizer replay diverged from the recorded run at "
                   "iteration " +
                   std::to_string(iter);
        }
    }
    return "";
}

/**
 * Tracing overhead: time @p fn untraced, traced, and untraced again, and
 * record the mean untraced and the traced wall time in @p meta. Only the
 * traced call leaves spans. Bracketing it cancels a steady drift, such as
 * the first call's page faults.
 */
template <class Fn>
void
measureOverhead(JsonObject &meta, Fn &&fn)
{
    auto wall = [&](bool traced) {
        gTracer.enabled = traced;
        Clock::time_point t0 = Clock::now();
        fn();
        return secondsSince(t0);
    };
    double before = wall(false);
    double traced = wall(true);
    double after = wall(false);
    meta.num("untraced_s", (before + after) / 2).num("traced_s", traced);
}

std::string
serviceJson(const api::DecodeServiceStats &st)
{
    JsonObject o;
    o.count("clone_hits", st.cloneHits)
        .count("clone_misses", st.cloneMisses)
        .count("peak_queue_depth", st.peakQueueDepth)
        .count("requests", st.requests);
    return o.text();
}

/** Trace mode. Fills @p meta with the run's non-span facts; returns an
 * error message when an output check fails. */
std::string
traceWorkload(const Args &a, const Workload &w,
              const circuit::SmSchedule &schedule, JsonObject &meta)
{
    const std::size_t threads = sim::resolveThreads(0);
    meta.count("threads", threads);
    std::string error;
    if (w.optimize) {
        api::OptimizeRequest req = optimizeRequest(schedule, w, a);
        api::OptimizeResult res;
        Record cold = runOptimize("cold", req, &res);
        if (!cold.error.empty()) {
            return cold.error;
        }
        gTracer.enabled = true;
        {
            Scope span("api.request");
            Record warm = runOptimize("warm", req);
            span.count("iterations", (double)warm.iterations);
            if (warm.scheduleHash != cold.scheduleHash) {
                error = "warm optimizer run returned another schedule";
            }
        }
        measureOverhead(meta, [&]() {
            std::string e = replayOptimizer(req, res.outcome);
            if (!e.empty()) {
                error = e;
            }
        });
        return error;
    }

    // The first request warms the process (and, for serve, its Engine).
    api::Engine engine;
    const api::LerRequest req =
        lerRequest(schedule, w.ler, streamSeed(a, 0), 0);
    Record cold = runLer("cold", engine, req);
    if (!cold.error.empty()) {
        return cold.error;
    }
    std::vector<uint64_t> seeds;
    std::vector<std::array<std::size_t, 2>> served;
    if (w.serve) {
        // The loops run a fixed request count; the replay then recomputes
        // the first of them on one thread.
        const std::size_t requests = a.smoke ? 8 : 60;
        std::vector<Record> records;
        std::size_t next = 1;
        measureOverhead(meta, [&]() {
            next = serveLoop(engine, a, w, schedule, next, requests, 1e9,
                             records);
        });
        std::sort(records.begin(), records.end(),
                  [](const Record &x, const Record &y) {
                      return x.index < y.index;
                  });
        for (const Record &r : records) {
            if (!r.error.empty()) {
                return r.error;
            }
            if (seeds.size() < 8) {
                seeds.push_back(streamSeed(a, r.index));
                served.push_back({r.zFailures, r.xFailures});
            }
        }
        meta.raw("service", serviceJson(engine.serviceStats()));
    } else {
        api::Engine fresh;
        gTracer.enabled = true;
        {
            Scope span("api.request");
            api::LerResult res = fresh.run(req);
            countTelemetry(span, res.telemetry);
            served.push_back(
                {res.memory.z.failures, res.memory.x.failures});
        }
        meta.raw("service", serviceJson(fresh.serviceStats()));
        seeds.push_back(req.seed);
    }
    std::vector<std::size_t> replayed;
    auto replayAll = [&]() {
        Scope span("replay");
        replayed = replayLer(schedule, w.ler, seeds);
    };
    if (w.serve) {
        gTracer.enabled = true;
        replayAll();
    } else {
        measureOverhead(meta, replayAll);
    }
    meta.count("shots_per_basis", w.ler.shots)
        .count("shard_shots", std::min(sim::kDefaultShardShots, w.ler.shots));
    for (std::size_t r = 0; r < seeds.size(); ++r) {
        if (replayed[2 * r] != served[r][0] ||
            replayed[2 * r + 1] != served[r][1]) {
            return "one-thread replay failures differ from the Engine's";
        }
    }
    return "";
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument("missing value for " + k);
            }
            return argv[++i];
        };
        if (k == "--workload") {
            a.workload = value();
        } else if (k == "--seed") {
            a.seed = std::stoull(value());
        } else if (k == "--mode") {
            a.mode = value();
        } else if (k == "--seconds") {
            a.seconds = std::stod(value());
        } else if (k == "--spans") {
            a.spans = value();
        } else if (k == "--process") {
            a.process = std::stoul(value());
        } else if (k == "--reference") {
            a.reference = true;
        } else if (k == "--smoke") {
            a.smoke = true;
        } else {
            throw std::invalid_argument("unknown argument " + k);
        }
    }
    if (a.mode != "run" && a.mode != "trace") {
        throw std::invalid_argument("--mode must be run or trace");
    }
    if (a.mode == "trace" && a.spans.empty()) {
        throw std::invalid_argument("--mode trace needs --spans PATH");
    }
    return a;
}

int
benchMain(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const Workload w = workloadFor(a);
    const bool trace = a.mode == "trace";
    gTracer.enabled = trace;
    std::shared_ptr<const code::CssCode> code;
    {
        Scope s("code.build");
        code = std::make_shared<const code::CssCode>(w.makeCode());
    }
    gTracer.enabled = false;
    const circuit::SmSchedule schedule = circuit::colorationSchedule(code);

    JsonObject out;
    out.str("workload", a.workload)
        .str("mode", a.mode)
        .raw("build", buildStamp());
    if (trace) {
        JsonObject meta;
        std::string error = traceWorkload(a, w, schedule, meta);
        gTracer.enabled = false;
        if (!gTracer.write(a.spans)) {
            throw std::runtime_error("cannot write spans to " + a.spans);
        }
        out.raw("meta", meta.text()).str("error", error);
    } else {
        RunOutput r = w.optimize ? runOptWorkload(a, w, schedule)
                      : w.serve  ? runServeWorkload(a, w, schedule)
                                 : runLerWorkload(a, w, schedule);
        std::vector<std::string> records;
        for (const Record &rec : r.records) {
            records.push_back(rec.json());
        }
        out.num("setup_s", r.setupSeconds)
            .num("window_s", r.windowSeconds)
            .count("shots_per_basis", w.ler.shots)
            .raw("records", jsonArray(records));
    }
    out.num("peak_rss_mb", peakRssMb());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}

#include "api/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "circuit/sm_circuit.h"
#include "sim/dem_builder.h"

namespace prophunt::api {

namespace {

uint64_t
now_us()
{
    return (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Full schedule identity, used to verify hash-keyed cache hits. */
bool
sameSchedule(const circuit::SmSchedule &a, const circuit::SmSchedule &b)
{
    return a.code().name() == b.code().name() &&
           a.code().n() == b.code().n() &&
           a.code().numChecks() == b.code().numChecks() && a == b;
}

std::string
noiseKey(const sim::NoiseModel &noise)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g,%.17g,%.17g", noise.p1, noise.p2,
                  noise.pIdle);
    return buf;
}

} // namespace

Engine::Engine(EngineOptions opts) : opts_(opts), service_(opts.service) {}

Engine::~Engine()
{
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        stopping_ = true;
    }
    jobCv_.notify_all();
    if (dispatcher_.joinable()) {
        dispatcher_.join();
    }
}

Engine::Artifact
Engine::artifactFor(const circuit::SmSchedule &schedule, std::size_t rounds,
                    circuit::MemoryBasis basis,
                    const sim::NoiseModel &noise,
                    const decoder::DecoderSpec &spec,
                    std::size_t flag_weight, Telemetry &telemetry)
{
    char key[80];
    std::snprintf(key, sizeof key, "c%016llx|r%zu|b%d|f%zu",
                  (unsigned long long)hashSchedule(schedule), rounds,
                  basis == circuit::MemoryBasis::Z ? 0 : 1, flag_weight);
    std::string demKey = std::string(key) + "|n" + noiseKey(noise) + "|d" +
                         spec.describe();

    if (opts_.cacheEnabled) {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        auto it = demCache_.find(demKey);
        if (it != demCache_.end() &&
            sameSchedule(it->second->schedule, schedule)) {
            ++cacheHits_;
            ++telemetry.cacheHits;
            // No decoder clone here: the decode service checks warm
            // clones out of the key's lane group per shard.
            return {std::move(demKey), it->second};
        }
    }

    // The circuit lives only as long as the DEM and prototype build.
    uint64_t t0 = now_us();
    const circuit::SmCircuit circuit =
        circuit::buildMemoryCircuit(schedule, rounds, basis, flag_weight);
    sim::Dem dem = sim::buildDem(circuit, noise);
    auto prototype = decoder::Registry::make(spec, dem, circuit);
    std::shared_ptr<const DemEntry> shared = std::make_shared<DemEntry>(
        DemEntry{schedule, std::move(dem), std::move(prototype)});
    telemetry.buildUs += now_us() - t0;
    ++telemetry.cacheMisses;
    if (opts_.cacheEnabled) {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        ++cacheMisses_;
        // A racing request may have inserted the key meanwhile; keep the
        // first entry so every borrower shares one artifact.
        auto [it, inserted] = demCache_.emplace(demKey, shared);
        if (inserted) {
            demOrder_.push_back(demKey);
            if (demOrder_.size() > kMaxCacheEntries) {
                demCache_.erase(demOrder_.front());
                demOrder_.pop_front();
            }
        }
        // On a hash collision the first entry stays; this request keeps
        // its privately built artifacts.
        if (sameSchedule(it->second->schedule, schedule)) {
            shared = it->second;
        }
    }
    return {std::move(demKey), std::move(shared)};
}

decoder::LerResult
Engine::serviceMeasure(const Artifact &art, std::size_t shots, uint64_t seed,
                       const decoder::LerOptions &ler,
                       const std::atomic<bool> *cancel, Telemetry &telemetry)
{
    DecodeJob job;
    job.key = art.demKey;
    job.dem = &art.entry->dem;
    job.prototype = art.entry->prototype.get();
    job.keepAlive = art.entry;
    job.shots = shots;
    job.seed = seed;
    job.ler = ler;
    job.cancel = cancel;
    uint64_t t0 = now_us();
    DecodeOutcome o = service_.measure(job);
    telemetry.decodeUs += now_us() - t0;
    telemetry.shots += o.result.shots;
    telemetry.packed += o.result.packed;
    telemetry.coalescedRequests += o.coalesced ? 1 : 0;
    telemetry.workSteals += o.steals;
    telemetry.queueDepth = std::max(telemetry.queueDepth, o.queueDepth);
    return o.result;
}

decoder::MemoryLer
Engine::measureMemory(const Artifact &z, const Artifact &x, std::size_t shots,
                      uint64_t seed, const decoder::LerOptions &ler,
                      const std::atomic<bool> *cancel, Telemetry &telemetry)
{
    decoder::MemoryLer m;
    for (auto basis : {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
        const bool is_z = basis == circuit::MemoryBasis::Z;
        (is_z ? m.z : m.x) = serviceMeasure(
            is_z ? z : x, shots, decoder::memoryBasisSeed(seed, basis), ler,
            cancel, telemetry);
    }
    return m;
}

LerResult
Engine::run(const LerRequest &req)
{
    LerResult out;
    if (req.shots == 0) {
        // A zero-shot request has a well-formed empty answer; skip the
        // artifact build so the telemetry stays zeroed too.
        return out;
    }
    Artifact z = artifactFor(req.schedule, req.rounds, circuit::MemoryBasis::Z,
                             req.noise, req.decoder, req.flagWeight,
                             out.telemetry);
    Artifact x = artifactFor(req.schedule, req.rounds, circuit::MemoryBasis::X,
                             req.noise, req.decoder, req.flagWeight,
                             out.telemetry);
    out.memory = measureMemory(z, x, req.shots, req.seed, req.ler, req.cancel,
                               out.telemetry);
    return out;
}

SweepPointResult
Engine::sweepPointCells(const SweepRequest &req, SweepCheckpoint &cp,
                        std::size_t pi,
                        const std::function<void()> &cellCommitted,
                        bool &interrupted)
{
    Telemetry telemetry;
    decoder::PackedDecodeStats z_packed, x_packed;
    const sim::NoiseModel noise =
        sim::NoiseModel::withIdle(req.ps[pi], req.pIdle);
    // Built on the first pending chunk: a fully checkpointed point
    // resumes without touching the cache at all.
    Artifact z, x;

    // Canonical order: compute the chunk after the contiguous done prefix
    // until the prefix is complete (an SPRT decision, or every chunk), so
    // no chunk past a decision is ever sampled — as in the serial loop.
    for (SweepPrefix pre; !(pre = evalSweepPrefix(cp, pi)).complete;) {
        const std::size_t c = pre.chunksDone;
        if (req.cancel != nullptr && req.cancel->load()) {
            interrupted = true;
            break;
        }
        if (z.entry == nullptr) {
            z = artifactFor(req.schedule, req.rounds, circuit::MemoryBasis::Z,
                            noise, req.decoder, req.flagWeight, telemetry);
            x = artifactFor(req.schedule, req.rounds, circuit::MemoryBasis::X,
                            noise, req.decoder, req.flagWeight, telemetry);
        }
        decoder::MemoryLer m =
            measureMemory(z, x, cp.chunkSize(c), sweepChunkSeed(req, c),
                          req.ler, req.cancel, telemetry);
        z_packed += m.z.packed;
        x_packed += m.x.packed;
        if (req.cancel != nullptr && req.cancel->load()) {
            // The cancel flag flipped while this chunk was in flight;
            // its tallies may be a truncated shard prefix rather than
            // the canonical chunk. Discard it — results and checkpoints
            // carry only full canonical cells, so a resume recomputes
            // this chunk and stays bit-identical.
            interrupted = true;
            break;
        }
        cp.points[pi].chunks[c] = {.done = true,
                                   .zShots = m.z.shots,
                                   .zFailures = m.z.failures,
                                   .xShots = m.x.shots,
                                   .xFailures = m.x.failures,
                                   .zEarlyStopped = m.z.earlyStopped,
                                   .xEarlyStopped = m.x.earlyStopped};
        cellCommitted();
    }

    // The memory tallies account the full canonical prefix, checkpointed
    // or fresh; telemetry and packed stats report this call's work only.
    SweepPointResult out = finalizePoint(cp, pi);
    out.telemetry = telemetry;
    out.memory.z.packed = z_packed;
    out.memory.x.packed = x_packed;
    return out;
}

SweepResult
Engine::run(const SweepRequest &req)
{
    validateSweepRequest(req);
    const bool persist = !req.checkpointPath.empty();

    SweepCheckpoint cp = makeSweepCheckpoint(req);
    if (persist) {
        if (auto loaded = SweepCheckpoint::loadIfExists(req.checkpointPath)) {
            if (loaded->fingerprint != cp.fingerprint) {
                throw std::runtime_error(
                    "SweepRequest: checkpoint '" + req.checkpointPath +
                    "' belongs to a different request (fingerprint "
                    "mismatch); point it elsewhere or delete it");
            }
            if (loaded->points.size() != cp.points.size()) {
                throw std::runtime_error(
                    "SweepRequest: checkpoint '" + req.checkpointPath +
                    "' does not match the request's point grid");
            }
            cp = std::move(*loaded);
        }
    }

    const std::size_t save_every =
        std::max<std::size_t>(1, req.checkpointEveryChunks);
    std::size_t since_save = 0;
    auto cell_committed = [&]() {
        if (persist && ++since_save >= save_every) {
            cp.saveAtomic(req.checkpointPath);
            since_save = 0;
        }
    };

    SweepResult out;
    out.points.reserve(req.ps.size());
    bool interrupted = false;
    for (std::size_t pi = 0; pi < req.ps.size() && !interrupted; ++pi) {
        if (req.cancel != nullptr && req.cancel->load()) {
            break;
        }
        SweepPointResult pt =
            sweepPointCells(req, cp, pi, cell_committed, interrupted);
        out.telemetry += pt.telemetry;
        // A cancelled in-progress point contributes its contiguous
        // done-chunk prefix; an untouched one is omitted entirely.
        if (!interrupted || pt.memory.z.shots + pt.memory.x.shots != 0) {
            out.points.push_back(pt);
        }
    }
    if (persist) {
        // Always leave a final checkpoint on disk, even after a
        // cancellation or a run that computed nothing new.
        cp.saveAtomic(req.checkpointPath);
    }
    return out;
}

OptimizeResult
Engine::run(const OptimizeRequest &req)
{
    OptimizeResult out;
    uint64_t t0 = now_us();
    core::PropHuntOptions opts = req.options;
    if (req.cancel != nullptr) {
        opts.cancel = req.cancel;
    }
    out.outcome = core::PropHunt(opts).optimize(req.start, req.rounds);
    // The optimizer samples/decodes internally; its whole wall time is
    // reported as decode time.
    out.telemetry.decodeUs += now_us() - t0;
    return out;
}

template <class Result, class Request>
std::future<Result>
Engine::enqueue(Request req)
{
    auto task = std::make_shared<std::packaged_task<Result()>>(
        [this, req = std::move(req)]() { return run(req); });
    std::future<Result> future = task->get_future();
    {
        std::lock_guard<std::mutex> lock(jobMutex_);
        if (!dispatcher_.joinable()) {
            dispatcher_ = std::thread([this]() { dispatchLoop(); });
        }
        jobs_.push_back([task]() { (*task)(); });
    }
    jobCv_.notify_one();
    return future;
}

void
Engine::dispatchLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(jobMutex_);
            jobCv_.wait(lock,
                        [this]() { return stopping_ || !jobs_.empty(); });
            if (jobs_.empty()) {
                return; // stopping_, queue drained.
            }
            job = std::move(jobs_.front());
            jobs_.pop_front();
        }
        job();
    }
}

std::future<LerResult>
Engine::submit(LerRequest req)
{
    return enqueue<LerResult>(std::move(req));
}

std::future<SweepResult>
Engine::submit(SweepRequest req)
{
    return enqueue<SweepResult>(std::move(req));
}

std::future<OptimizeResult>
Engine::submit(OptimizeRequest req)
{
    return enqueue<OptimizeResult>(std::move(req));
}

Engine::CacheStats
Engine::cacheStats() const
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return {demCache_.size(), cacheHits_, cacheMisses_};
}

void
Engine::clearCache()
{
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        demCache_.clear();
        demOrder_.clear();
    }
    // Warm clones and tallies borrow cache-owned artifacts; dropping the
    // cache without them would only waste memory (identity guards keep
    // correctness either way).
    service_.clear();
}

DecodeServiceStats
Engine::serviceStats() const
{
    return service_.stats();
}

} // namespace prophunt::api

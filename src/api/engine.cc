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

Engine::Engine(EngineOptions opts) : service_(opts.service) {}

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

    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        auto it = demCache_.find(demKey);
        if (it != demCache_.end() &&
            sameSchedule(it->second->schedule, schedule)) {
            ++cacheHits_;
            ++telemetry.cacheHits;
            // No decoder clone here: the decode service clones the
            // prototype per request.
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
    {
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

decoder::MemoryLer
Engine::measureMemory(const Artifact &z, const Artifact &x, std::size_t shots,
                      uint64_t seed, const decoder::LerOptions &ler,
                      Telemetry &telemetry)
{
    // Both bases go to the decode service as one run: Z's shards are
    // claimed first, then X's, so a request with one shard per basis
    // keeps two pool slots busy.
    auto jobFor = [&](const Artifact &art, circuit::MemoryBasis basis) {
        DecodeJob job;
        job.key = art.demKey;
        job.dem = &art.entry->dem;
        job.prototype = art.entry->prototype.get();
        job.shots = shots;
        job.seed = decoder::memoryBasisSeed(seed, basis);
        job.ler = ler;
        return job;
    };
    const DecodeJob jobs[2] = {jobFor(z, circuit::MemoryBasis::Z),
                               jobFor(x, circuit::MemoryBasis::X)};
    uint64_t t0 = now_us();
    std::vector<DecodeOutcome> outs = service_.measure(jobs);
    telemetry.decodeUs += now_us() - t0;
    for (const DecodeOutcome &o : outs) {
        telemetry.shots += o.result.shots;
        telemetry.packed += o.result.packed;
        telemetry.coalescedRequests += o.coalesced ? 1 : 0;
        telemetry.workSteals += o.steals;
        telemetry.queueDepth = std::max(telemetry.queueDepth, o.queueDepth);
    }
    return {outs[0].result, outs[1].result};
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
    out.memory =
        measureMemory(z, x, req.shots, req.seed, req.ler, out.telemetry);
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
        // An unwritable path fails here, before the first shot.
        cp.saveAtomic(req.checkpointPath);
    }

    LerRequest point(req.schedule);
    point.rounds = req.rounds;
    point.decoder = req.decoder;
    point.shots = req.shotsPerPoint;
    point.seed = req.seed;
    point.ler = req.ler;
    point.flagWeight = req.flagWeight;

    SweepResult out;
    out.points.reserve(cp.points.size());
    for (SweepPointCheckpoint &pt : cp.points) {
        SweepPointResult r;
        r.p = pt.p;
        if (pt.done) {
            // Checkpointed: its tallies, and no work of this call.
            r.memory = pt.memory();
        } else {
            point.noise = sim::NoiseModel::withIdle(pt.p, req.pIdle);
            LerResult m = run(point);
            out.telemetry += m.telemetry;
            r.memory = m.memory;
            r.telemetry = m.telemetry;
            pt = {.p = pt.p,
                  .done = true,
                  .zShots = m.memory.z.shots,
                  .zFailures = m.memory.z.failures,
                  .xShots = m.memory.x.shots,
                  .xFailures = m.memory.x.failures,
                  .zEarlyStopped = m.memory.z.earlyStopped,
                  .xEarlyStopped = m.memory.x.earlyStopped};
            if (persist) {
                cp.saveAtomic(req.checkpointPath);
            }
        }
        out.points.push_back(r);
    }
    return out;
}

OptimizeResult
Engine::run(const OptimizeRequest &req)
{
    OptimizeResult out;
    uint64_t t0 = now_us();
    out.outcome =
        core::PropHunt(req.options).optimize(req.start, req.rounds);
    // The optimizer samples/decodes internally; its whole wall time is
    // reported as decode time.
    out.telemetry.decodeUs += now_us() - t0;
    return out;
}

Engine::CacheStats
Engine::cacheStats() const
{
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return {demCache_.size(), cacheHits_, cacheMisses_};
}

DecodeServiceStats
Engine::serviceStats() const
{
    return service_.stats();
}

} // namespace prophunt::api

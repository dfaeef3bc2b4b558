/**
 * @file
 * prophunt::api::Engine — the one entry point for every workload.
 *
 * The engine serves typed requests (api/requests.h) over the existing
 * simulation/decoding machinery, adding the production-side concerns the
 * free functions never had:
 *
 *  - an artifact cache: built DEMs and decoder prototypes are keyed by
 *    (schedule hash, rounds, basis, flag weight, noise model, decoder
 *    spec), at most kMaxCacheEntries of them (FIFO). Sweeps and repeated
 *    requests reuse them instead of rebuilding per point; a miss builds
 *    the memory circuit, derives the DEM and the prototype from it, and
 *    drops the circuit. The cache is the only state one request leaves
 *    for the next; a fresh Engine is an uncached run, and cached and
 *    uncached runs are bit-identical: DEM construction is deterministic
 *    and Decoder::clone() must not affect decode results.
 *  - a decode service: every LER measurement (LerRequests and sweep
 *    points alike) flows through a long-lived api::DecodeService, which
 *    fans each request's shards out over a persistent worker pool on
 *    clones made for that request, both memory bases in one pool run,
 *    and samples and decodes every shard it reports — bit-identical to
 *    the serial oracle oracles::measureMemoryLer (tests/support).
 *  - checkpointable sweeps: run(SweepRequest) measures each point once,
 *    as the equivalent LerRequest; with checkpointPath set every
 *    measured point persists atomically (api/sweep_checkpoint.h) and a
 *    rerun resumes bit-identically to an uninterrupted run.
 *
 * Every run() is one blocking call. Thread safety: all public methods
 * may be called concurrently; concurrent runs share the cache and the
 * pool, and each returns what it would return alone.
 */
#ifndef PROPHUNT_API_ENGINE_H
#define PROPHUNT_API_ENGINE_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "api/decode_service.h"
#include "api/requests.h"
#include "api/sweep_checkpoint.h"

namespace prophunt::api {

/** The artifact-cache key component (circuit/schedule.h). */
using circuit::hashSchedule;

/** FIFO capacity of the artifact cache. */
inline constexpr std::size_t kMaxCacheEntries = 256;

/** Engine construction knobs. */
struct EngineOptions
{
    /** Decode-service knobs (pool sizing). */
    DecodeServiceOptions service;
};

/** The unified workload engine. */
class Engine
{
  public:
    explicit Engine(EngineOptions opts = {});
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Measure one schedule's combined memory-Z/X LER. Bit-identical to
     * the serial oracle oracles::measureMemoryLer at the same request
     * parameters. */
    LerResult run(const LerRequest &req);

    /** Run a physical-error-rate sweep, one LerRequest per point. */
    SweepResult run(const SweepRequest &req);

    /** Run the PropHunt optimizer (core::PropHunt::optimize). */
    OptimizeResult run(const OptimizeRequest &req);

    struct CacheStats
    {
        std::size_t demEntries = 0;
        std::size_t hits = 0;
        std::size_t misses = 0;
    };
    CacheStats cacheStats() const;

    /** Decode-service lifetime counters (coalescing, steals, decoded
     * shards). */
    DecodeServiceStats serviceStats() const;

  private:
    /**
     * A built DEM plus the decoder prototype runs clone from. Cache keys
     * carry only a 64-bit schedule hash; the stored schedule is compared
     * on every hit so a hash collision degrades to a rebuild, never to
     * silently serving another schedule's artifacts.
     */
    struct DemEntry
    {
        circuit::SmSchedule schedule;
        sim::Dem dem;
        std::unique_ptr<decoder::Decoder> prototype;
    };

    /** What one measurement borrows: the shared DEM entry plus its cache
     * key — the decode service's coalescing identity. Decoder clones are
     * made inside the service, per request. */
    struct Artifact
    {
        std::string demKey;
        std::shared_ptr<const DemEntry> entry;
    };

    Artifact artifactFor(const circuit::SmSchedule &schedule,
                         std::size_t rounds, circuit::MemoryBasis basis,
                         const sim::NoiseModel &noise,
                         const decoder::DecoderSpec &spec,
                         std::size_t flag_weight, Telemetry &telemetry);

    /** The one memory-measurement loop (run(LerRequest), and so every
     * sweep point): @p shots per basis on prebuilt artifacts, basis b
     * sampling at memoryBasisSeed(@p seed, b). Both bases are one
     * decode-service run, and the outcomes' telemetry is folded into
     * @p telemetry. */
    decoder::MemoryLer measureMemory(const Artifact &z, const Artifact &x,
                                     std::size_t shots, uint64_t seed,
                                     const decoder::LerOptions &ler,
                                     Telemetry &telemetry);

    DecodeService service_;

    mutable std::mutex cacheMutex_;
    std::map<std::string, std::shared_ptr<const DemEntry>> demCache_;
    std::deque<std::string> demOrder_;
    std::size_t cacheHits_ = 0;
    std::size_t cacheMisses_ = 0;
};

} // namespace prophunt::api

#endif // PROPHUNT_API_ENGINE_H

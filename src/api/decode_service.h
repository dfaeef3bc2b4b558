/**
 * @file
 * Decode-as-a-service: one blocking LER measurement on a persistent
 * worker pool, with request coalescing telemetry.
 *
 * DecodeService is the long-lived core behind every api::Engine LER
 * measurement:
 *
 *  - shard execution runs on a persistent sim::WorkerPool (the shared
 *    process pool by default, or a dedicated pool for isolation), so
 *    threads never tear down between requests and idle workers pull
 *    shards from whichever request has work — work stealing across
 *    concurrent requests falls out of the pool's run queue;
 *  - each measure() clones the decoder prototype lazily, once per pool
 *    slot it uses, and drops the clones on return. A clone shares the
 *    prototype's read-only graph (decoder::BpOsdDecoder clones alias
 *    one immutable Tanner CSR, decoder::UnionFindDecoder clones one
 *    matching graph with its incidence CSR), so it costs a scratch
 *    copy, not a graph build;
 *  - concurrent requests for the same key interleave their shards in
 *    the same pool and are counted as coalesced. Results still split
 *    deterministically per request because every request's shards are
 *    seeded from its own SplitMix64 range (sim::shardSeed(seed, shard))
 *    — the answer is bit-identical to a serial run at any thread count
 *    and any arrival order.
 *
 * Nothing is carried between requests: every measure() samples and
 * decodes every shard it accounts, on clones of its own.
 *
 * measure() is the library's one Monte-Carlo LER driver.
 *
 * Determinism contract: measure() returns exactly what the serial
 * oracle (oracles::measureDemLer in tests/support: shards sampled and
 * decoded in index order, stopped after the shard whose cumulative
 * failures reach maxFailures) returns for the same (dem, clone, shots,
 * seed, ler), for every thread count and coalescing state.
 */
#ifndef PROPHUNT_API_DECODE_SERVICE_H
#define PROPHUNT_API_DECODE_SERVICE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "decoder/decoder.h"
#include "decoder/logical_error.h"
#include "sim/dem.h"
#include "sim/parallel_sampler.h"

namespace prophunt::api {

/** DecodeService construction knobs. */
struct DecodeServiceOptions
{
    /**
     * Dedicated pool workers; 0 (the default) shares the process-wide
     * sim::WorkerPool. A dedicated pool isolates the service's decode
     * traffic (and makes pool-side behavior observable in tests even on
     * small machines).
     */
    std::size_t threads = 0;
};

/**
 * One decode job: a DEM + decoder prototype (borrowed from the caller's
 * artifact cache; both must outlive the measure() call) and a shot
 * budget.
 *
 * @p key is the coalescing identity: concurrent jobs with equal keys
 * are counted as coalesced. It only feeds telemetry; every job decodes
 * on clones of its own prototype.
 */
struct DecodeJob
{
    std::string key;
    const sim::Dem *dem = nullptr;
    const decoder::Decoder *prototype = nullptr;
    /** Shot budget of this request. */
    std::size_t shots = 0;
    /** Master seed; shard i samples with sim::shardSeed(seed, i). */
    uint64_t seed = 1;
    /** Slot cap (threads; 0 = every pool worker), maxFailures and
     * shardShots of this request. */
    decoder::LerOptions ler;
};

/** What measure() hands back: the LER tally plus service telemetry. */
struct DecodeOutcome
{
    decoder::LerResult result;
    /** Admitted while another request with the same key was in flight. */
    bool coalesced = false;
    /** Shards of this request a thread decoded right after serving a
     * different request stream. */
    std::size_t steals = 0;
    /** Pending shard-queue depth at admission (this request included). */
    std::size_t queueDepth = 0;
};

/** Monotone service-lifetime counters. */
struct DecodeServiceStats
{
    std::size_t requests = 0;
    std::size_t coalescedRequests = 0;
    std::size_t steals = 0;
    std::size_t decodedShards = 0;
    std::size_t peakQueueDepth = 0;
    /** Shards decoded on the clone their pool slot already held vs
     * shards whose slot first called prototype->clone() (one clone per
     * slot per request). */
    std::size_t cloneHits = 0;
    std::size_t cloneMisses = 0;
};

/**
 * The persistent decode core behind api::Engine's LER paths.
 *
 * Thread safety: measure() and stats() may be called concurrently from
 * any number of threads.
 */
class DecodeService
{
  public:
    explicit DecodeService(DecodeServiceOptions opts = {});
    ~DecodeService();
    DecodeService(const DecodeService &) = delete;
    DecodeService &operator=(const DecodeService &) = delete;

    /**
     * Run one decode job to completion (blocking). Bit-identical to
     * the serial oracle on the same (dem, prototype clone, shots, seed,
     * ler) regardless of thread count, arrival order, or coalescing.
     * Throws std::invalid_argument on invalid DEM probabilities (before
     * any shard is queued).
     */
    DecodeOutcome measure(const DecodeJob &job);

    DecodeServiceStats stats() const;

  private:
    sim::WorkerPool &pool();
    std::size_t defaultSlotCap() const;

    DecodeServiceOptions opts_;
    /** Dedicated pool (opts_.threads > 0); otherwise WorkerPool::shared()
     * serves the shards. */
    std::unique_ptr<sim::WorkerPool> pool_;

    mutable std::mutex mutex_;
    /** In-flight requests per key (coalescing detection). */
    std::map<std::string, std::size_t> activeKeys_;
    std::size_t pendingShards_ = 0;
    DecodeServiceStats stats_;
};

} // namespace prophunt::api

#endif // PROPHUNT_API_DECODE_SERVICE_H

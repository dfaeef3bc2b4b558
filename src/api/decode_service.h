/**
 * @file
 * Decode-as-a-service: persistent lane pools with request coalescing.
 *
 * DecodeService is the long-lived core behind every api::Engine LER
 * measurement:
 *
 *  - shard execution runs on a persistent sim::WorkerPool (the shared
 *    process pool by default, or a dedicated pool for isolation), so
 *    threads never tear down between requests and idle workers pull
 *    shards from whichever request has work — work stealing across
 *    concurrent requests falls out of the pool's run queue;
 *  - each decode key (DEM + decoder spec + noise, as baked into the
 *    engine's artifact key) owns a lane group: a checkout list of warm
 *    decoder clones that all share the read-only Tanner CSR
 *    (decoder::BpOsdDecoder clones alias one immutable Tanner), so a
 *    request admitted for a warm key decodes without paying clone
 *    construction, let alone graph construction. At most
 *    kMaxLaneGroups keys stay warm (FIFO);
 *  - concurrent requests for the same key coalesce into one lane
 *    stream: they share the lane group's clones and interleave their
 *    shards in the same pool. Results still split deterministically
 *    per request because every request's shards are seeded from its own
 *    SplitMix64 range (sim::shardSeed(seed, shard)) — the answer is
 *    bit-identical to a serial run at any thread count and any arrival
 *    order.
 *
 * Every measure() samples and decodes every shard it accounts; nothing
 * is carried between requests except warm decoder clones.
 *
 * measure() is the library's one Monte-Carlo LER driver.
 *
 * Determinism contract: measure() returns exactly what the serial
 * oracle (oracles::measureDemLer in tests/support: shards sampled and
 * decoded in index order, stopped after the shard whose cumulative
 * failures reach maxFailures) returns for the same (dem, clone, shots,
 * seed, ler), for every thread count, coalescing state, and cache
 * state. Cancellation truncates to a contiguous shard prefix (each
 * prefix being a valid smaller run of the same stream).
 */
#ifndef PROPHUNT_API_DECODE_SERVICE_H
#define PROPHUNT_API_DECODE_SERVICE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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

/** FIFO bound on warm lane groups. */
inline constexpr std::size_t kMaxLaneGroups = 16;

/**
 * One decode job: a DEM + decoder prototype (borrowed from the caller's
 * artifact cache) and a shot budget.
 *
 * Jobs with equal @p key MUST describe bit-identical decode problems —
 * the key is the coalescing and warm-clone identity. @p keepAlive
 * guards that contract: it pins the artifacts alive and is compared by
 * pointer identity before a warm lane group's clones are trusted, so a
 * 64-bit key collision or a rebuilt artifact degrades to a cold start,
 * never to decoding with another problem's clones.
 */
struct DecodeJob
{
    std::string key;
    const sim::Dem *dem = nullptr;
    const decoder::Decoder *prototype = nullptr;
    /** Owner of @p dem / @p prototype (identity guard, lifetime pin). */
    std::shared_ptr<const void> keepAlive;
    /** Shot budget of this request. */
    std::size_t shots = 0;
    /** Master seed; shard i samples with sim::shardSeed(seed, i). */
    uint64_t seed = 1;
    /** Slot cap (threads; 0 = every pool worker), maxFailures and
     * shardShots of this request. */
    decoder::LerOptions ler;
    /**
     * Optional cancellation flag. Once set, no further shards are
     * claimed; already-claimed shards complete, and the result is the
     * contiguous completed shard prefix (a valid smaller run).
     */
    const std::atomic<bool> *cancel = nullptr;
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

/** Monotone service-lifetime counters (laneGroups is a point-in-time
 * size). */
struct DecodeServiceStats
{
    std::size_t requests = 0;
    std::size_t coalescedRequests = 0;
    std::size_t steals = 0;
    std::size_t decodedShards = 0;
    std::size_t peakQueueDepth = 0;
    /** Shard decoder checkouts served by a warm clone vs a fresh
     * prototype->clone(). */
    std::size_t cloneHits = 0;
    std::size_t cloneMisses = 0;
    std::size_t laneGroups = 0;
};

/**
 * The persistent decode core behind api::Engine's LER paths.
 *
 * Thread safety: measure(), stats(), and clear() may be called
 * concurrently from any number of threads.
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

    /** Drop all warm lane groups. */
    void clear();

  private:
    /** Warm decoder clones of one decode key. */
    struct LaneGroup
    {
        std::shared_ptr<const void> owner;
        std::vector<std::unique_ptr<decoder::Decoder>> idle;
    };

    sim::WorkerPool &pool();
    std::size_t defaultSlotCap() const;
    std::unique_ptr<decoder::Decoder> checkout(LaneGroup &group,
                                               const DecodeJob &job);
    void giveBack(LaneGroup &group, std::unique_ptr<decoder::Decoder> dec);

    DecodeServiceOptions opts_;
    /** Dedicated pool (opts_.threads > 0); otherwise WorkerPool::shared()
     * serves the shards. */
    std::unique_ptr<sim::WorkerPool> pool_;

    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<LaneGroup>> groups_;
    std::deque<std::string> groupOrder_;
    /** In-flight requests per key (coalescing detection). */
    std::map<std::string, std::size_t> activeKeys_;
    std::size_t pendingShards_ = 0;
    DecodeServiceStats stats_;
};

} // namespace prophunt::api

#endif // PROPHUNT_API_DECODE_SERVICE_H

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
 *  - one measure() call takes one job or several (Engine submits a
 *    memory request's Z and X bases together) and drains every job's
 *    shards in a single WorkerPool::run, claimed in job order. Each job
 *    keeps its own shard plan, tallies, contiguous-prefix accounting,
 *    maxFailures stop, coalescing key and steal count; a stopped job's
 *    remaining shards are claimed and skipped, and the pool stops
 *    claiming once every job has stopped or finished;
 *  - the run clones a job's decoder prototype lazily, in each pool slot
 *    that runs one of its shards. A slot holds at most one clone: on
 *    moving to another job's shard it drops its clone before cloning
 *    that job's prototype, so at most slot-cap clones are alive. All
 *    clones are dropped on return. A clone shares the prototype's
 *    read-only graph (decoder::BpOsdDecoder clones alias one immutable
 *    Tanner CSR, decoder::UnionFindDecoder clones one matching graph
 *    with its incidence CSR), so it costs a scratch copy, not a graph
 *    build;
 *  - concurrent requests for the same key interleave their shards in
 *    the same pool and are counted as coalesced. Results still split
 *    deterministically per job because every job's shards are seeded
 *    from its own SplitMix64 range (sim::shardSeed(seed, shard)) — the
 *    answer is bit-identical to a serial run at any thread count and
 *    any arrival order.
 *
 * Nothing is carried between requests: every measure() samples and
 * decodes every shard it accounts, on clones of its own.
 *
 * measure() is the library's one Monte-Carlo LER driver, and the
 * several-job form holds its one shard loop.
 *
 * Determinism contract: measure() returns, for each job, exactly what
 * the serial oracle (oracles::measureDemLer in tests/support: shards
 * sampled and decoded in index order, stopped after the shard whose
 * cumulative failures reach maxFailures) returns for the same (dem,
 * clone, shots, seed, ler), for every thread count and coalescing
 * state.
 */
#ifndef PROPHUNT_API_DECODE_SERVICE_H
#define PROPHUNT_API_DECODE_SERVICE_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
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

/**
 * What measure() hands back per job: the LER tally plus service
 * telemetry. Jobs of one measure() call share one pool run, so there is
 * no per-job wall time; callers time the call.
 */
struct DecodeOutcome
{
    decoder::LerResult result;
    /** Admitted while another job with the same key was in flight. */
    bool coalesced = false;
    /** Shards of this job a thread decoded right after serving a
     * different stream (decoder prototype). A slot that moves from one
     * job of a run to the next counts as a steal too. */
    std::size_t steals = 0;
    /** Pending shard-queue depth at admission, this job included. Jobs
     * of one call are admitted in order, so a later job's depth includes
     * the earlier jobs' shards. */
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
     * shards whose slot called prototype->clone() (once per slot per job
     * the slot moves onto). */
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

    /** measure() of the one job @p job. */
    DecodeOutcome measure(const DecodeJob &job);

    /**
     * Run @p jobs to completion in one pool run (blocking); outcome i
     * belongs to jobs[i]. Each outcome is bit-identical to the serial
     * oracle on that job's (dem, prototype clone, shots, seed, ler)
     * regardless of thread count, arrival order, coalescing, or the
     * other jobs of the call. The run uses at most the smallest slot cap
     * (ler.threads) among the jobs with shots, so threads = 1 decodes
     * the jobs one after another on the caller. Throws
     * std::invalid_argument on invalid DEM probabilities (before any
     * shard is queued).
     */
    std::vector<DecodeOutcome> measure(std::span<const DecodeJob> jobs);

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

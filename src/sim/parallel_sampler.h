/**
 * @file
 * Shard seeding and the persistent worker pool behind every parallel
 * loop.
 *
 * Shots are split into fixed-size shards; shard i is sampled with its own
 * RNG stream seeded by the i-th output of a SplitMix64 generator seeded
 * with the master seed. A sharded result is therefore defined as the
 * concatenation of independent per-shard serial runs, which makes it
 * bit-identical for every thread count (including 1) at a fixed master
 * seed. The LER driver, api::DecodeService::measure, claims shards in
 * ascending order from a WorkerPool and accounts them in index order, so
 * it matches the serial oracle (oracles::measureDemLer in tests/support)
 * at every thread count.
 */
#ifndef PROPHUNT_SIM_PARALLEL_SAMPLER_H
#define PROPHUNT_SIM_PARALLEL_SAMPLER_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/dem.h"

namespace prophunt::sim {

/** Default shots per shard: large enough to amortize thread handoff,
 * small enough that early stopping has useful granularity. */
inline constexpr std::size_t kDefaultShardShots = 4096;

/** One step of the SplitMix64 sequence (state is advanced in place). */
uint64_t splitMix64(uint64_t &state);

/** Seed of shard @p shard: the shard-th output of SplitMix64(masterSeed). */
uint64_t shardSeed(uint64_t master_seed, std::size_t shard);

/** Resolve a thread-count knob: 0 means hardware concurrency. */
std::size_t resolveThreads(std::size_t threads);

/** Fixed-size sharding of a shot budget. */
struct ShardPlan
{
    std::size_t shots = 0;
    std::size_t shardShots = kDefaultShardShots;

    std::size_t
    numShards() const
    {
        return shardShots == 0 ? 0 : (shots + shardShots - 1) / shardShots;
    }

    std::size_t
    offsetOf(std::size_t shard) const
    {
        return shard * shardShots;
    }

    /** Shots in shard @p shard (the last shard may be short). */
    std::size_t
    shotsOf(std::size_t shard) const
    {
        std::size_t off = offsetOf(shard);
        return off >= shots ? 0 : std::min(shardShots, shots - off);
    }
};

/**
 * Persistent pool of worker threads draining index runs.
 *
 * A run is a half-open index range [0, n) executed by at most @p maxSlots
 * concurrent participants. The calling thread always participates (so a
 * pool with zero threads degrades to a serial loop, and nested runs issued
 * from inside a pool worker always make progress: every run's caller can
 * drain it alone). Idle pool workers pick the oldest queued run with both
 * work and a free participant slot — when several runs are queued this is
 * what work stealing looks like from the outside: a thread that finished
 * one run's indices moves straight onto another run's queue.
 *
 * Each participant is handed a dense slot id in [0, maxSlots); slot 0 is
 * always the caller. Indices are claimed from a cursor under the pool
 * mutex, so the claim order is ascending and the completed set is a
 * contiguous prefix when a run is stopped early. Exceptions thrown by the
 * work function stop the run and are rethrown on the calling thread.
 */
class WorkerPool
{
  public:
    /** Spawn @p threads pool workers (callers additionally help). */
    explicit WorkerPool(std::size_t threads);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Worker threads owned by the pool (the caller of run() is extra). */
    std::size_t
    threadCount() const
    {
        return threads_.size();
    }

    /**
     * Process-wide pool sized hardware_concurrency() - 1, so one caller
     * plus the pool saturates the machine. Created on first use.
     */
    static WorkerPool &shared();

    /**
     * Run @p fn(i, slot) for i in [0, n) on up to @p maxSlots participants
     * (the caller included). Returns when every claimed index finished.
     * If @p stop is non-null it is checked before each claim; indices
     * already claimed still complete.
     */
    void run(std::size_t n, std::size_t maxSlots,
             const std::function<void(std::size_t, std::size_t)> &fn,
             const std::atomic<bool> *stop = nullptr);

  private:
    struct RunState;

    void workerLoop();
    void drainLocked(RunState &run, std::size_t slot,
                     std::unique_lock<std::mutex> &lock);

    std::mutex mutex_;
    std::condition_variable workCv_;
    std::vector<RunState *> queue_;
    std::vector<std::thread> threads_;
    bool shutdown_ = false;
};

/**
 * Throw std::invalid_argument if any mechanism has p >= 1.
 *
 * Callers that sample on pool threads must validate before spawning: a
 * throw inside a worker would terminate the process.
 */
void validateDemProbabilities(const Dem &dem, const char *where);

/**
 * Run @p fn(i) for i in [0, n) across @p threads workers.
 *
 * The PropHunt optimizer's work-distribution loop (subgraph sampling,
 * MaxSAT solves, candidate verification): indices are claimed in
 * ascending order from WorkerPool::shared(), and @p threads = 0 means
 * hardware concurrency.
 */
void parallelFor(std::size_t n, std::size_t threads,
                 const std::function<void(std::size_t)> &fn);

} // namespace prophunt::sim

#endif // PROPHUNT_SIM_PARALLEL_SAMPLER_H

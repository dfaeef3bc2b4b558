#include "api/decode_service.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "sim/frame_sampler.h"

namespace prophunt::api {

namespace {

/**
 * Stream tag (the decoder prototype) of the last shard this thread
 * decoded. A thread whose next shard belongs to a different stream
 * "stole" it in the classic sense: it finished one request's work and
 * moved onto another's queue. Tags are only compared, never
 * dereferenced, so a recycled address can at worst miscount one steal —
 * acceptable for a telemetry counter.
 */
thread_local const void *tlLastStream = nullptr;

/** One decoded shard of a request. */
struct ShardTally
{
    std::size_t failures = 0;
    decoder::PackedDecodeStats stats;
    bool done = false;
};

/** Runs @p fn when the scope exits, by return or by exception. */
template <class Fn>
struct OnExit
{
    Fn fn;
    ~OnExit() { fn(); }
};

} // namespace

DecodeService::DecodeService(DecodeServiceOptions opts) : opts_(opts)
{
    if (opts_.threads > 0) {
        pool_ = std::make_unique<sim::WorkerPool>(opts_.threads);
    }
}

DecodeService::~DecodeService() = default;

sim::WorkerPool &
DecodeService::pool()
{
    return pool_ ? *pool_ : sim::WorkerPool::shared();
}

std::size_t
DecodeService::defaultSlotCap() const
{
    // One caller plus every pool worker; the shared pool is sized
    // hardware_concurrency() - 1, so both branches saturate the machine.
    return pool_ ? pool_->threadCount() + 1 : sim::resolveThreads(0);
}

DecodeOutcome
DecodeService::measure(const DecodeJob &job)
{
    DecodeOutcome out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requests;
    }
    if (job.shots == 0) {
        // Well-formed empty run: nothing admitted.
        return out;
    }
    // Throw in the caller before any shard reaches a pool thread.
    sim::validateDemProbabilities(*job.dem, "DecodeService::measure");

    // A shard size of 0 counts as 1; one larger than the run is the run.
    const sim::ShardPlan plan{
        job.shots,
        std::min(std::max<std::size_t>(job.ler.shardShots, 1), job.shots)};
    const std::size_t n = plan.numShards();

    // Admission: coalescing bookkeeping under one lock so concurrent
    // same-key requests see a consistent picture.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::size_t &active = activeKeys_[job.key];
        out.coalesced = active > 0;
        if (out.coalesced) {
            ++stats_.coalescedRequests;
        }
        ++active;
        pendingShards_ += n;
        out.queueDepth = pendingShards_;
        stats_.peakQueueDepth =
            std::max(stats_.peakQueueDepth, pendingShards_);
    }

    // Shards this request took off the queue, and each decoded shard's
    // tally (all guarded by mutex_). Shards may complete in any order;
    // early stopping looks only at the contiguous completed prefix. On
    // every exit, a throwing shard included, the unclaimed rest leaves
    // the queue and the request leaves its key's in-flight count.
    std::size_t executed = 0;
    std::vector<ShardTally> tallies(n);
    std::size_t prefixEnd = 0;
    std::size_t prefixFailures = 0;
    OnExit release{[&] {
        std::lock_guard<std::mutex> lock(mutex_);
        pendingShards_ -= std::min(pendingShards_, n - executed);
        auto it = activeKeys_.find(job.key);
        if (it != activeKeys_.end() && --it->second == 0) {
            activeKeys_.erase(it);
        }
    }};

    std::atomic<bool> stopFlag{false};
    std::atomic<std::size_t> steals{0};
    std::size_t cap = job.ler.threads != 0
                          ? sim::resolveThreads(job.ler.threads)
                          : defaultSlotCap();
    std::size_t maxSlots = std::min(cap, n);
    // Per pool slot: a decoder clone made by the slot's first shard, and
    // frame/decode scratch. A slot runs one shard at a time, so none of
    // them needs a lock; all are dropped on return.
    std::vector<std::unique_ptr<decoder::Decoder>> clones(maxSlots);
    std::vector<sim::FrameBatch> frameScratch(maxSlots);
    std::vector<decoder::FrameShardScratch> decodeScratch(maxSlots);

    pool().run(
        n, maxSlots,
        [&](std::size_t shard, std::size_t slot) {
            bool stolen = tlLastStream != nullptr &&
                          tlLastStream != job.prototype;
            tlLastStream = job.prototype;

            std::unique_ptr<decoder::Decoder> &dec = clones[slot];
            const bool cloned = dec == nullptr;
            if (cloned) {
                dec = job.prototype->clone();
            }
            sim::FrameBatch &frames = frameScratch[slot];
            sim::sampleDemFramesInto(*job.dem, plan.shotsOf(shard),
                                     sim::shardSeed(job.seed, shard),
                                     frames);
            decoder::FrameShardScratch &ws = decodeScratch[slot];
            std::size_t failures = decoder::decodeFrameShard(*dec, frames, ws);

            if (stolen) {
                steals.fetch_add(1, std::memory_order_relaxed);
            }
            std::lock_guard<std::mutex> lock(mutex_);
            ++(cloned ? stats_.cloneMisses : stats_.cloneHits);
            tallies[shard] = {failures, ws.stats, true};
            while (prefixEnd < n && tallies[prefixEnd].done) {
                prefixFailures += tallies[prefixEnd++].failures;
            }
            // No later shard can change the result once the prefix
            // reaches the target.
            if (job.ler.maxFailures != 0 &&
                prefixFailures >= job.ler.maxFailures) {
                stopFlag.store(true, std::memory_order_relaxed);
            }
            --pendingShards_;
            ++executed;
            ++stats_.decodedShards;
        },
        &stopFlag);

    // Completed shards in index order, cut at the first missing shard or
    // at the shard whose cumulative failures reach maxFailures; shards
    // decoded beyond the cut are discarded.
    for (std::size_t shard = 0; shard < n && tallies[shard].done; ++shard) {
        out.result.shots += plan.shotsOf(shard);
        out.result.failures += tallies[shard].failures;
        out.result.packed += tallies[shard].stats;
        if (job.ler.maxFailures != 0 &&
            out.result.failures >= job.ler.maxFailures) {
            out.result.earlyStopped = shard + 1 < n;
            break;
        }
    }
    out.steals = steals.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.steals += out.steals;
    }
    return out;
}

DecodeServiceStats
DecodeService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace prophunt::api

#include "api/decode_service.h"

#include <algorithm>
#include <atomic>
#include <deque>
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

/** One admitted job of a measure() run and its shard accounting. */
struct JobRun
{
    JobRun(const DecodeJob &j, DecodeOutcome &o, sim::ShardPlan p,
           std::size_t firstIndex)
        : job(j), out(o), plan(p), first(firstIndex), n(p.numShards()),
          tallies(n)
    {
    }

    const DecodeJob &job;
    DecodeOutcome &out;
    sim::ShardPlan plan;
    /** Run index of shard 0; the job owns run indices [first, first+n). */
    std::size_t first;
    std::size_t n;
    /** Each decoded shard's tally, the contiguous completed prefix, the
     * shards decoded or skipped, and the stolen ones (all guarded by the
     * service mutex). Shards may complete in any order; early stopping
     * looks only at the prefix. */
    std::vector<ShardTally> tallies;
    std::size_t prefixEnd = 0;
    std::size_t prefixFailures = 0;
    std::size_t retired = 0;
    std::size_t steals = 0;
    /** Set (under the service mutex) once the prefix reaches
     * maxFailures; shards claimed later are skipped. */
    std::atomic<bool> stopped{false};
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
    return measure(std::span<const DecodeJob>(&job, 1)).front();
}

std::vector<DecodeOutcome>
DecodeService::measure(std::span<const DecodeJob> jobs)
{
    std::vector<DecodeOutcome> outs(jobs.size());
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.requests += jobs.size();
    }
    // Throw in the caller before any shard reaches a pool thread.
    for (const DecodeJob &job : jobs) {
        if (job.shots != 0) {
            sim::validateDemProbabilities(*job.dem, "DecodeService::measure");
        }
    }

    // The run's shard space is every job's shards in job order; a
    // zero-shot job has none and is never admitted. The slot cap is the
    // smallest of the admitted jobs' caps.
    std::deque<JobRun> runs;
    std::size_t total = 0;
    std::size_t cap = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const DecodeJob &job = jobs[j];
        if (job.shots == 0) {
            continue;
        }
        // A shard size of 0 counts as 1; one larger than the run is the
        // run.
        const sim::ShardPlan plan{
            job.shots,
            std::min(std::max<std::size_t>(job.ler.shardShots, 1),
                     job.shots)};
        runs.emplace_back(job, outs[j], plan, total);
        total += plan.numShards();
        std::size_t jobCap = job.ler.threads != 0
                                 ? sim::resolveThreads(job.ler.threads)
                                 : defaultSlotCap();
        cap = cap == 0 ? jobCap : std::min(cap, jobCap);
    }
    if (runs.empty()) {
        return outs;
    }

    // Admission: coalescing bookkeeping under one lock so concurrent
    // same-key requests see a consistent picture.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (JobRun &r : runs) {
            std::size_t &active = activeKeys_[r.job.key];
            r.out.coalesced = active > 0;
            if (r.out.coalesced) {
                ++stats_.coalescedRequests;
            }
            ++active;
            pendingShards_ += r.n;
            r.out.queueDepth = pendingShards_;
            stats_.peakQueueDepth =
                std::max(stats_.peakQueueDepth, pendingShards_);
        }
    }
    // On every exit, a throwing shard included, each job's unretired
    // shards leave the queue and the job leaves its key's in-flight
    // count.
    OnExit release{[&] {
        std::lock_guard<std::mutex> lock(mutex_);
        for (JobRun &r : runs) {
            pendingShards_ -= std::min(pendingShards_, r.n - r.retired);
            auto it = activeKeys_.find(r.job.key);
            if (it != activeKeys_.end() && --it->second == 0) {
                activeKeys_.erase(it);
            }
        }
    }};

    // Jobs not yet settled (stopped early, or every shard decoded); the
    // pool stops claiming once none is left (guarded by mutex_).
    std::size_t unsettled = runs.size();
    std::atomic<bool> stopFlag{false};
    const std::size_t maxSlots = std::min(cap, total);
    // Per pool slot: the decoder clone of the job whose shard the slot
    // ran last, and frame/decode scratch. A slot runs one shard at a
    // time, so none of them needs a lock. A slot that moves to another
    // job drops its clone before cloning that job's prototype, so at
    // most maxSlots clones are alive; all are dropped on return.
    std::vector<std::unique_ptr<decoder::Decoder>> clones(maxSlots);
    std::vector<const JobRun *> cloneOwner(maxSlots, nullptr);
    std::vector<sim::FrameBatch> frameScratch(maxSlots);
    std::vector<decoder::FrameShardScratch> decodeScratch(maxSlots);

    pool().run(
        total, maxSlots,
        [&](std::size_t index, std::size_t slot) {
            std::size_t j = 0;
            while (index >= runs[j].first + runs[j].n) {
                ++j;
            }
            JobRun &r = runs[j];
            const std::size_t shard = index - r.first;
            if (r.stopped) {
                // Claimed after the job's prefix reached maxFailures: no
                // later shard can change its result.
                std::lock_guard<std::mutex> lock(mutex_);
                --pendingShards_;
                ++r.retired;
                return;
            }
            bool stolen = tlLastStream != nullptr &&
                          tlLastStream != r.job.prototype;
            tlLastStream = r.job.prototype;

            std::unique_ptr<decoder::Decoder> &dec = clones[slot];
            const bool cloned = cloneOwner[slot] != &r;
            if (cloned) {
                dec.reset();
                dec = r.job.prototype->clone();
                cloneOwner[slot] = &r;
            }
            sim::FrameBatch &frames = frameScratch[slot];
            sim::sampleDemFramesInto(*r.job.dem, r.plan.shotsOf(shard),
                                     sim::shardSeed(r.job.seed, shard),
                                     frames);
            decoder::FrameShardScratch &ws = decodeScratch[slot];
            std::size_t failures = decoder::decodeFrameShard(*dec, frames, ws);

            std::lock_guard<std::mutex> lock(mutex_);
            r.steals += stolen ? 1 : 0;
            ++(cloned ? stats_.cloneMisses : stats_.cloneHits);
            r.tallies[shard] = {failures, ws.stats, true};
            while (r.prefixEnd < r.n && r.tallies[r.prefixEnd].done) {
                r.prefixFailures += r.tallies[r.prefixEnd++].failures;
            }
            --pendingShards_;
            ++r.retired;
            ++stats_.decodedShards;
            // A job settles once its prefix reaches the target or its
            // last shard is decoded; the run stops claiming once every
            // job has settled.
            if (r.stopped) {
                return;
            }
            if (r.job.ler.maxFailures != 0 &&
                r.prefixFailures >= r.job.ler.maxFailures) {
                r.stopped = true;
            } else if (r.retired < r.n) {
                return;
            }
            if (--unsettled == 0) {
                stopFlag.store(true, std::memory_order_relaxed);
            }
        },
        &stopFlag);

    std::size_t steals = 0;
    for (JobRun &r : runs) {
        // Completed shards in index order, cut at the first missing
        // shard or at the shard whose cumulative failures reach
        // maxFailures; shards decoded beyond the cut are discarded.
        decoder::LerResult &result = r.out.result;
        for (std::size_t shard = 0; shard < r.n && r.tallies[shard].done;
             ++shard) {
            result.shots += r.plan.shotsOf(shard);
            result.failures += r.tallies[shard].failures;
            result.packed += r.tallies[shard].stats;
            if (r.job.ler.maxFailures != 0 &&
                result.failures >= r.job.ler.maxFailures) {
                result.earlyStopped = shard + 1 < r.n;
                break;
            }
        }
        r.out.steals = r.steals;
        steals += r.steals;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.steals += steals;
    }
    return outs;
}

DecodeServiceStats
DecodeService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace prophunt::api

#include "api/decode_service.h"

#include <algorithm>
#include <cstdio>

#include "sim/frame_sampler.h"

namespace prophunt::api {

namespace {

/**
 * Stream tag of the last shard this thread decoded. A thread whose next
 * shard belongs to a different stream "stole" it in the classic sense:
 * it finished one request's work and moved onto another's queue. Tags
 * are only compared, never dereferenced, so a recycled address can at
 * worst miscount one steal — acceptable for a telemetry counter.
 */
thread_local const void *tlLastStream = nullptr;

/**
 * The entry of @p key in a FIFO-bounded map, created (evicting the
 * oldest key beyond @p cap) when absent. An entry bound to another owner
 * — a rebuilt artifact, or a 64-bit key collision — is replaced, so
 * stale clones or tallies are never trusted.
 */
template <class Entry>
std::shared_ptr<Entry>
ownedEntryLocked(std::map<std::string, std::shared_ptr<Entry>> &map,
                 std::deque<std::string> &order, std::size_t cap,
                 const std::string &key,
                 const std::shared_ptr<const void> &owner)
{
    auto [it, inserted] = map.try_emplace(key);
    if (!it->second || it->second->owner.get() != owner.get()) {
        it->second = std::make_shared<Entry>();
        it->second->owner = owner;
    }
    std::shared_ptr<Entry> entry = it->second;
    if (inserted) {
        order.push_back(key);
        if (order.size() > cap) {
            map.erase(order.front());
            order.pop_front();
        }
    }
    return entry;
}

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

std::unique_ptr<decoder::Decoder>
DecodeService::checkout(LaneGroup &group, const DecodeJob &job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!group.idle.empty()) {
            auto dec = std::move(group.idle.back());
            group.idle.pop_back();
            ++stats_.cloneHits;
            return dec;
        }
        ++stats_.cloneMisses;
    }
    // Clone outside the lock: a BP+OSD scratch copy is large and must
    // not serialize the whole service (the shared Tanner CSR itself is
    // not copied — clones alias it).
    return job.prototype->clone();
}

void
DecodeService::giveBack(LaneGroup &group,
                        std::unique_ptr<decoder::Decoder> dec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    group.idle.push_back(std::move(dec));
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
        // Well-formed empty run: nothing admitted, nothing recorded.
        return out;
    }
    // Throw in the caller before any shard reaches a pool thread.
    sim::validateDemProbabilities(*job.dem, "DecodeService::measure");

    decoder::ShardLedger ledger(job.shots, job.ler);
    const sim::ShardPlan &plan = ledger.plan();
    const std::size_t n = plan.numShards();

    // Tally streams are identified by (decode key, master seed, shard
    // size): only an exactly matching tuple may exchange shard results.
    char suffix[48];
    std::snprintf(suffix, sizeof suffix, "|s%016llx|w%zu",
                  (unsigned long long)job.seed, plan.shardShots);
    const std::string tallyKey = job.key + suffix;

    std::vector<uint8_t> reused(n, 0);
    std::vector<std::size_t> todo;
    todo.reserve(n);
    bool targetMet = false;
    std::shared_ptr<LaneGroup> group;
    std::shared_ptr<TallyEntry> tally;

    // Admission: coalescing bookkeeping, lane-group checkout, and the
    // tally scan happen under one lock so concurrent same-key requests
    // see a consistent picture.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::size_t &active = activeKeys_[job.key];
        out.coalesced = active > 0;
        if (out.coalesced) {
            ++stats_.coalescedRequests;
        }
        ++active;
        group = ownedEntryLocked(groups_, groupOrder_, kMaxLaneGroups,
                                 job.key, job.keepAlive);
        if (opts_.reuseShots) {
            tally = ownedEntryLocked(tallies_, tallyOrder_, kMaxTallyKeys,
                                     tallyKey, job.keepAlive);
        }
        for (std::size_t shard = 0; shard < n; ++shard) {
            if (tally && shard < tally->shards.size() &&
                tally->shards[shard].shots == plan.shotsOf(shard)) {
                const ShardTally &t = tally->shards[shard];
                targetMet = ledger.record(shard, t.failures, t.stats);
                reused[shard] = 1;
            } else {
                todo.push_back(shard);
            }
        }
        pendingShards_ += todo.size();
        out.queueDepth = pendingShards_;
        stats_.peakQueueDepth =
            std::max(stats_.peakQueueDepth, pendingShards_);
    }

    // Shards this request took off the queue (guarded by mutex_). On
    // every exit, a throwing shard included, the unclaimed rest leaves
    // the queue and the request leaves its key's in-flight count.
    std::size_t executed = 0;
    OnExit release{[&] {
        std::lock_guard<std::mutex> lock(mutex_);
        pendingShards_ -= std::min(pendingShards_, todo.size() - executed);
        auto it = activeKeys_.find(job.key);
        if (it != activeKeys_.end() && --it->second == 0) {
            activeKeys_.erase(it);
        }
    }};

    bool cancelled =
        job.cancel != nullptr && job.cancel->load(std::memory_order_relaxed);
    std::atomic<bool> stopFlag{false};
    std::atomic<std::size_t> steals{0};

    if (!todo.empty() && !targetMet && !cancelled) {
        std::size_t cap = job.ler.threads != 0
                              ? sim::resolveThreads(job.ler.threads)
                              : defaultSlotCap();
        std::size_t maxSlots = std::min(cap, todo.size());
        std::vector<sim::FrameBatch> frameScratch(maxSlots);
        std::vector<decoder::FrameShardScratch> decodeScratch(maxSlots);

        pool().run(
            todo.size(), maxSlots,
            [&](std::size_t t, std::size_t slot) {
                if (job.cancel != nullptr &&
                    job.cancel->load(std::memory_order_relaxed)) {
                    stopFlag.store(true, std::memory_order_relaxed);
                    return;
                }
                std::size_t shard = todo[t];
                bool stolen = tlLastStream != nullptr &&
                              tlLastStream != group.get();
                tlLastStream = group.get();

                auto dec = checkout(*group, job);
                sim::FrameBatch &frames = frameScratch[slot];
                sim::sampleDemFramesInto(*job.dem, plan.shotsOf(shard),
                                         sim::shardSeed(job.seed, shard),
                                         frames);
                decoder::FrameShardScratch &ws = decodeScratch[slot];
                std::size_t failures =
                    decoder::decodeFrameShard(*dec, frames, ws);
                giveBack(*group, std::move(dec));

                if (ledger.record(shard, failures, ws.stats)) {
                    stopFlag.store(true, std::memory_order_relaxed);
                }
                if (stolen) {
                    steals.fetch_add(1, std::memory_order_relaxed);
                }
                std::lock_guard<std::mutex> lock(mutex_);
                --pendingShards_;
                ++executed;
                ++stats_.decodedShards;
                if (tally) {
                    if (tally->shards.size() <= shard) {
                        tally->shards.resize(shard + 1);
                    }
                    tally->shards[shard] =
                        ShardTally{plan.shotsOf(shard), failures, ws.stats};
                }
            },
            &stopFlag);
    }

    out.result = ledger.result();
    out.steals = steals.load(std::memory_order_relaxed);
    // The accounted shards are a prefix of the plan.
    const std::size_t accounted =
        sim::ShardPlan{out.result.shots, plan.shardShots}.numShards();
    for (std::size_t shard = 0; shard < accounted; ++shard) {
        if (reused[shard]) {
            out.reusedShots += plan.shotsOf(shard);
        }
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.steals += out.steals;
        stats_.reusedShots += out.reusedShots;
    }
    return out;
}

DecodeServiceStats
DecodeService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    DecodeServiceStats s = stats_;
    s.tallyKeys = tallies_.size();
    s.laneGroups = groups_.size();
    return s;
}

void
DecodeService::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    groups_.clear();
    groupOrder_.clear();
    tallies_.clear();
    tallyOrder_.clear();
}

} // namespace prophunt::api

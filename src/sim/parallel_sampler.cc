#include "sim/parallel_sampler.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace prophunt::sim {

uint64_t
splitMix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
shardSeed(uint64_t master_seed, std::size_t shard)
{
    // Equivalent to advancing SplitMix64(master_seed) shard+1 times and
    // taking the last output, but O(1): the state after k steps is
    // master_seed + k * golden.
    uint64_t state = master_seed + (uint64_t)shard * 0x9e3779b97f4a7c15ULL;
    return splitMix64(state);
}

std::size_t
resolveThreads(std::size_t threads)
{
    if (threads != 0) {
        return threads;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/**
 * One queued index range. Lives on the caller's stack: the caller never
 * returns from run() while any participant is inside, and removes the run
 * from the queue before waiting, so no worker can observe a dead pointer.
 */
struct WorkerPool::RunState
{
    std::size_t n = 0;
    std::size_t maxSlots = 1;
    const std::function<void(std::size_t, std::size_t)> *fn = nullptr;
    const std::atomic<bool> *stop = nullptr;
    /** Next index to claim; guarded by the pool mutex. */
    std::size_t cursor = 0;
    /** Dense participant slots handed out so far (slot 0 is the caller). */
    std::size_t slotsUsed = 0;
    /** Threads currently inside drainLocked for this run. */
    std::size_t participants = 0;
    bool stopped = false;
    std::exception_ptr error;
    std::condition_variable doneCv;

    bool
    hasWork() const
    {
        return !stopped && cursor < n &&
               (stop == nullptr || !stop->load(std::memory_order_relaxed));
    }
};

WorkerPool::WorkerPool(std::size_t threads)
{
    threads_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        threads_.emplace_back([this] { workerLoop(); });
    }
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_) {
        t.join();
    }
}

WorkerPool &
WorkerPool::shared()
{
    static WorkerPool pool(resolveThreads(0) - 1);
    return pool;
}

void
WorkerPool::drainLocked(RunState &run, std::size_t slot,
                        std::unique_lock<std::mutex> &lock)
{
    while (run.hasWork()) {
        std::size_t i = run.cursor++;
        lock.unlock();
        try {
            (*run.fn)(i, slot);
        } catch (...) {
            lock.lock();
            if (!run.error) {
                run.error = std::current_exception();
            }
            run.stopped = true;
            return;
        }
        lock.lock();
    }
}

void
WorkerPool::run(std::size_t n, std::size_t maxSlots,
                const std::function<void(std::size_t, std::size_t)> &fn,
                const std::atomic<bool> *stop)
{
    if (n == 0) {
        return;
    }
    RunState run;
    run.n = n;
    run.maxSlots = std::max<std::size_t>(maxSlots, 1);
    run.fn = &fn;
    run.stop = stop;

    std::unique_lock<std::mutex> lock(mutex_);
    run.slotsUsed = 1; // the caller is participant 0
    run.participants = 1;
    bool queued = run.maxSlots > 1 && n > 1 && !threads_.empty();
    if (queued) {
        queue_.push_back(&run);
        workCv_.notify_all();
    }
    drainLocked(run, 0, lock);
    run.participants--;
    if (queued) {
        queue_.erase(std::find(queue_.begin(), queue_.end(), &run));
        run.doneCv.wait(lock, [&] { return run.participants == 0; });
    }
    if (run.error) {
        lock.unlock();
        std::rethrow_exception(run.error);
    }
}

void
WorkerPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        RunState *pick = nullptr;
        for (RunState *r : queue_) {
            if (r->hasWork() && r->slotsUsed < r->maxSlots) {
                pick = r;
                break;
            }
        }
        if (pick == nullptr) {
            if (shutdown_) {
                return;
            }
            workCv_.wait(lock);
            continue;
        }
        std::size_t slot = pick->slotsUsed++;
        pick->participants++;
        drainLocked(*pick, slot, lock);
        pick->participants--;
        if (pick->participants == 0) {
            pick->doneCv.notify_all();
        }
    }
}

void
parallelFor(std::size_t n, std::size_t threads,
            const std::function<void(std::size_t)> &fn)
{
    WorkerPool::shared().run(n, std::min(resolveThreads(threads), n),
                             [&fn](std::size_t i, std::size_t) { fn(i); });
}

void
validateDemProbabilities(const Dem &dem, const char *where)
{
    for (const ErrorMechanism &mech : dem.errors) {
        if (mech.p >= 1.0) {
            throw std::invalid_argument(std::string(where) + ": p >= 1");
        }
    }
}

} // namespace prophunt::sim

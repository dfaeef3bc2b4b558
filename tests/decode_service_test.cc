/**
 * @file
 * Concurrency and determinism contracts of api::DecodeService.
 *
 * The service promise under test: measure() returns exactly what the
 * serial oracle (oracles::measureDemLer) returns for the same (dem,
 * decoder, shots, seed, ler) — for every thread count, every arrival
 * order of concurrent requests, and every coalescing state.
 * A several-job measure() (one pool run, as Engine uses for a memory
 * request's two bases) must return each job's own serial reference.
 * On top of that, the suite pins the service-only behaviors:
 * deterministic coalescing detection (via a gate decoder that holds one
 * request in flight until a second is admitted), an identical rerun
 * decoding every shard again, the per-request clone ledger (one clone
 * per pool slot, and at most one live clone per slot across the jobs of
 * a run), admission state released when a shard throws, and the
 * WorkerPool primitive itself (full coverage, nesting, exception
 * propagation, stop flags).
 *
 * Everything asserted here is thread-count and wall-clock invariant;
 * PackedDecodeStats::osdUs (wall time) is deliberately never compared.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/decode_service.h"
#include "circuit/coloration.h"
#include "code/surface.h"
#include "decoder/decoder.h"
#include "decoder/logical_error.h"
#include "decoder/registry.h"
#include "sim/dem_builder.h"
#include "sim/frame_sampler.h"
#include "sim/noise_model.h"
#include "sim/parallel_sampler.h"
#include "support/sampling.h"

using namespace prophunt;

namespace {

/** One decode problem: a d=3 surface memory DEM plus a prototype. */
struct Model
{
    circuit::SmCircuit circuit;
    sim::Dem dem;
    std::unique_ptr<decoder::Decoder> prototype;
};

std::shared_ptr<Model>
makeModel(const decoder::DecoderSpec &spec = "union_find", double p = 3e-3)
{
    auto cp = std::make_shared<const code::CssCode>(code::SurfaceCode(3).code());
    auto m = std::make_shared<Model>();
    m->circuit = circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                             3, circuit::MemoryBasis::Z);
    m->dem = sim::buildDem(m->circuit, sim::NoiseModel::uniform(p));
    m->prototype = decoder::Registry::make(spec, m->dem, m->circuit);
    return m;
}

api::DecodeJob
jobFor(const std::shared_ptr<Model> &m, std::string key, std::size_t shots,
       uint64_t seed, std::size_t shard_shots, std::size_t threads = 1)
{
    api::DecodeJob job;
    job.key = std::move(key);
    job.dem = &m->dem;
    job.prototype = m->prototype.get();
    job.shots = shots;
    job.seed = seed;
    job.ler.shardShots = shard_shots;
    job.ler.threads = threads;
    return job;
}

/** The contract's right-hand side: the serial oracle on a fresh clone. */
decoder::LerResult
serialRef(const Model &m, std::size_t shots, uint64_t seed,
          std::size_t shard_shots, std::size_t max_failures = 0)
{
    auto dec = m.prototype->clone();
    decoder::LerOptions opts;
    opts.shardShots = shard_shots;
    opts.maxFailures = max_failures;
    return oracles::measureDemLer(m.dem, *dec, shots, seed, opts);
}

/** Every field of LerResult except the wall-clock osdUs. */
void
expectSameResult(const decoder::LerResult &got, const decoder::LerResult &want)
{
    EXPECT_EQ(got.shots, want.shots);
    EXPECT_EQ(got.failures, want.failures);
    EXPECT_EQ(got.earlyStopped, want.earlyStopped);
    EXPECT_EQ(got.packed.packedShots, want.packed.packedShots);
    EXPECT_EQ(got.packed.adapterShots, want.packed.adapterShots);
    EXPECT_EQ(got.packed.laneSlotsBusy, want.packed.laneSlotsBusy);
    EXPECT_EQ(got.packed.laneSlotsTotal, want.packed.laneSlotsTotal);
    EXPECT_EQ(got.packed.osdShots, want.packed.osdShots);
}

/**
 * A decoder whose decodePacked blocks until @p need shards (across all
 * clones sharing the gate) have entered decoding. Holding the first
 * request's only shard in flight until the second request's shard
 * arrives makes the coalescing window deterministic: the second
 * admission is guaranteed to happen while the first is still active.
 */
struct GateState
{
    std::atomic<int> entered{0};
    int need = 2;
};

class GateDecoder : public decoder::Decoder
{
  public:
    explicit GateDecoder(GateState *gate) : gate_(gate) {}

    uint64_t
    decode(const std::vector<uint32_t> &) override
    {
        return 0;
    }

    void
    decodePacked(const sim::FrameView &frames, uint64_t *obs_out,
                 decoder::PackedDecodeStats *stats) override
    {
        gate_->entered.fetch_add(1, std::memory_order_acq_rel);
        while (gate_->entered.load(std::memory_order_acquire) < gate_->need) {
            std::this_thread::yield();
        }
        for (std::size_t s = 0; s < frames.shots; ++s) {
            obs_out[s] = 0;
        }
        if (stats != nullptr) {
            stats->packedShots += frames.shots;
        }
    }

    std::unique_ptr<decoder::Decoder>
    clone() const override
    {
        return std::make_unique<GateDecoder>(gate_);
    }

  private:
    GateState *gate_;
};

/** A decoder whose every shard decode throws. */
class ThrowingDecoder : public decoder::Decoder
{
  public:
    uint64_t
    decode(const std::vector<uint32_t> &) override
    {
        return 0;
    }

    void
    decodePacked(const sim::FrameView &, uint64_t *,
                 decoder::PackedDecodeStats *) override
    {
        throw std::runtime_error("decode failed");
    }

    std::unique_ptr<decoder::Decoder>
    clone() const override
    {
        return std::make_unique<ThrowingDecoder>();
    }
};

/** Live and peak counts of CountingDecoder clones. */
struct CloneCount
{
    std::atomic<int> live{0};
    std::atomic<int> peak{0};
};

/**
 * A decoder that predicts "no logical error" after a short wait, and
 * whose clones register in a CloneCount while alive. The wait keeps
 * every slot of a pooled run busy, so slots move between jobs.
 */
class CountingDecoder : public decoder::Decoder
{
  public:
    /** A prototype: not counted. */
    explicit CountingDecoder(CloneCount *count) : count_(count) {}

    ~CountingDecoder() override
    {
        if (counted_) {
            count_->live.fetch_sub(1, std::memory_order_acq_rel);
        }
    }

    uint64_t
    decode(const std::vector<uint32_t> &) override
    {
        return 0;
    }

    void
    decodePacked(const sim::FrameView &frames, uint64_t *obs_out,
                 decoder::PackedDecodeStats *) override
    {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        for (std::size_t s = 0; s < frames.shots; ++s) {
            obs_out[s] = 0;
        }
    }

    std::unique_ptr<decoder::Decoder>
    clone() const override
    {
        auto c = std::make_unique<CountingDecoder>(count_);
        c->counted_ = true;
        int live = count_->live.fetch_add(1, std::memory_order_acq_rel) + 1;
        int peak = count_->peak.load(std::memory_order_relaxed);
        while (live > peak &&
               !count_->peak.compare_exchange_weak(peak, live)) {
        }
        return c;
    }

  private:
    CloneCount *count_;
    bool counted_ = false;
};

} // namespace

// --- WorkerPool primitive ---------------------------------------------------

TEST(WorkerPool, RunsEveryIndexExactlyOnceWithinSlotBound)
{
    sim::WorkerPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3u);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    std::atomic<std::size_t> badSlot{0};
    pool.run(n, 4, [&](std::size_t i, std::size_t slot) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        if (slot >= 4) {
            badSlot.fetch_add(1, std::memory_order_relaxed);
        }
    });
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    EXPECT_EQ(badSlot.load(), 0u);
}

TEST(WorkerPool, NestedRunsAlwaysProgress)
{
    // Every run's caller can drain it alone, so runs nested inside pool
    // workers never deadlock even when all workers are busy.
    sim::WorkerPool pool(2);
    std::atomic<std::size_t> inner{0};
    pool.run(4, 3, [&](std::size_t, std::size_t) {
        pool.run(8, 2, [&](std::size_t, std::size_t) {
            inner.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner.load(), 32u);
}

TEST(WorkerPool, ZeroThreadPoolDegradesToSerialLoop)
{
    sim::WorkerPool pool(0);
    std::vector<std::size_t> order;
    pool.run(5, 4, [&](std::size_t i, std::size_t slot) {
        EXPECT_EQ(slot, 0u);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(order[i], i);
    }
}

TEST(WorkerPool, ExceptionsPropagateToCaller)
{
    sim::WorkerPool pool(2);
    std::atomic<std::size_t> done{0};
    EXPECT_THROW(pool.run(100, 3,
                          [&](std::size_t i, std::size_t) {
                              if (i == 5) {
                                  throw std::runtime_error("boom");
                              }
                              done.fetch_add(1, std::memory_order_relaxed);
                          }),
                 std::runtime_error);
    EXPECT_LT(done.load(), 100u);
}

TEST(WorkerPool, PresetStopFlagClaimsNothing)
{
    sim::WorkerPool pool(2);
    std::atomic<bool> stop{true};
    std::atomic<std::size_t> ran{0};
    pool.run(64, 3,
             [&](std::size_t, std::size_t) {
                 ran.fetch_add(1, std::memory_order_relaxed);
             },
             &stop);
    EXPECT_EQ(ran.load(), 0u);
}

// --- serial equivalence -----------------------------------------------------

TEST(DecodeService, MatchesSerialReferenceAcrossThreadCounts)
{
    // Shard sizes: 16 shards, 0 (counts as 1 shot), and one larger than
    // the run (one shard at the run's size, seeded as shard 0).
    auto m = makeModel();
    api::DecodeServiceOptions opts;
    opts.threads = 2; // dedicated pool: real workers even on 1-CPU boxes
    for (auto [shots, shard_shots] :
         {std::pair<std::size_t, std::size_t>{4096, 256}, {300, 0},
          {4096, 10000}}) {
        decoder::LerResult ref = serialRef(*m, shots, 99, shard_shots);
        for (std::size_t threads : {1u, 2u, 8u}) {
            api::DecodeService service(opts);
            api::DecodeOutcome out = service.measure(
                jobFor(m, "d3", shots, 99, shard_shots, threads));
            SCOPED_TRACE("shardShots=" + std::to_string(shard_shots) +
                         " threads=" + std::to_string(threads));
            expectSameResult(out.result, ref);
            EXPECT_FALSE(out.coalesced);
        }
    }
}

TEST(DecodeService, BpOsdLaneDecoderMatchesSerialReference)
{
    auto m = makeModel("bp_osd", 2e-3);
    decoder::LerResult ref = serialRef(*m, 1536, 5, 256);
    api::DecodeServiceOptions opts;
    opts.threads = 2;
    api::DecodeService service(opts);
    for (std::size_t threads : {1u, 3u}) {
        api::DecodeOutcome out =
            service.measure(jobFor(m, "bp", 1536, 5, 256, threads));
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectSameResult(out.result, ref);
    }
}

TEST(DecodeService, MaxFailuresEarlyStopMatchesSerial)
{
    // 4000 shots in 128-shot shards: 31 full shards and a 32-shot one.
    // Targets: an early cut, a target that shard 9 reaches exactly
    // (shard seeds depend only on the index, so the first 1280 shots
    // are shards 0-9), a cut on the shard holding the run's last
    // failure, and one the run never reaches.
    auto m = makeModel("union_find", 1e-2);
    const std::size_t total = serialRef(*m, 4000, 13, 128).failures;
    const std::size_t exact = serialRef(*m, 1280, 13, 128).failures;
    ASSERT_GT(total, 5u);
    EXPECT_TRUE(serialRef(*m, 4000, 13, 128, 5).earlyStopped)
        << "test needs a regime where early stopping actually triggers";
    EXPECT_EQ(serialRef(*m, 4000, 13, 128, exact).shots, 1280u)
        << "test needs shard 9 to add a failure";
    for (std::size_t maxFailures : {std::size_t{5}, exact, total, total + 1}) {
        decoder::LerResult want = serialRef(*m, 4000, 13, 128, maxFailures);
        for (std::size_t threads : {1u, 4u}) {
            SCOPED_TRACE("maxFailures=" + std::to_string(maxFailures) +
                         " threads=" + std::to_string(threads));
            api::DecodeService service;
            api::DecodeJob job = jobFor(m, "hot", 4000, 13, 128, threads);
            job.ler.maxFailures = maxFailures;
            expectSameResult(service.measure(job).result, want);
        }
    }
}

TEST(DecodeService, MultiJobRunMatchesSeparateRuns)
{
    // Two jobs on different DEMs and seeds in one run: each outcome is
    // its own serial reference, in either job order, at every slot cap
    // on dedicated pools of 1 and 3 workers (so the jobs' shards really
    // interleave). Cases: full budgets; a maxFailures target only the
    // noisier job reaches (it stops early, the other runs its whole
    // budget); and a zero-shot job beside a non-empty one.
    auto a = makeModel("union_find", 3e-3);
    auto b = makeModel("union_find", 1e-2);
    const std::size_t quietTotal = serialRef(*a, 2048, 11, 128).failures;
    const std::size_t target = quietTotal + 1;
    ASSERT_TRUE(serialRef(*b, 3000, 12, 128, target).earlyStopped)
        << "test needs the noisier job to stop early";

    struct Case
    {
        const char *name;
        std::size_t shotsA;
        std::size_t shotsB;
        std::size_t maxFailures;
    };
    const Case cases[] = {{"full budgets", 2048, 3000, 0},
                          {"one job stops early", 2048, 3000, target},
                          {"zero-shot A", 0, 3000, 0},
                          {"zero-shot B", 2048, 0, target}};
    for (std::size_t workers : {1u, 3u}) {
        api::DecodeServiceOptions opts;
        opts.threads = workers;
        api::DecodeService service(opts);
        for (const Case &c : cases) {
            const decoder::LerResult wantA =
                serialRef(*a, c.shotsA, 11, 128, c.maxFailures);
            const decoder::LerResult wantB =
                serialRef(*b, c.shotsB, 12, 128, c.maxFailures);
            for (std::size_t threads : {1u, 2u, 4u}) {
                api::DecodeJob ja = jobFor(a, "A", c.shotsA, 11, 128, threads);
                api::DecodeJob jb = jobFor(b, "B", c.shotsB, 12, 128, threads);
                ja.ler.maxFailures = c.maxFailures;
                jb.ler.maxFailures = c.maxFailures;
                for (bool aFirst : {true, false}) {
                    SCOPED_TRACE(std::string(c.name) +
                                 " workers=" + std::to_string(workers) +
                                 " threads=" + std::to_string(threads) +
                                 (aFirst ? " A first" : " B first"));
                    const api::DecodeJob run[2] = {aFirst ? ja : jb,
                                                   aFirst ? jb : ja};
                    std::vector<api::DecodeOutcome> out = service.measure(run);
                    ASSERT_EQ(out.size(), 2u);
                    expectSameResult(out[aFirst ? 0 : 1].result, wantA);
                    expectSameResult(out[aFirst ? 1 : 0].result, wantB);
                }
            }
        }
    }
}

// --- concurrent submission --------------------------------------------------

TEST(DecodeService, ConcurrentIdenticalRequestsAllBitIdentical)
{
    auto m = makeModel();
    decoder::LerResult ref = serialRef(*m, 4096, 21, 256);
    api::DecodeServiceOptions opts;
    opts.threads = 2;
    api::DecodeService service(opts);

    const std::size_t clients = 8;
    std::vector<api::DecodeOutcome> outcomes(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            // Deterministic pseudo-jitter: scatter the arrival order.
            std::this_thread::sleep_for(
                std::chrono::microseconds((c * 97) % 500));
            api::DecodeJob job = jobFor(m, "same", 4096, 21, 256, 0);
            outcomes[c] = service.measure(job);
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    for (std::size_t c = 0; c < clients; ++c) {
        SCOPED_TRACE("client=" + std::to_string(c));
        expectSameResult(outcomes[c].result, ref);
    }
    EXPECT_EQ(service.stats().requests, clients);
}

TEST(DecodeService, ConcurrentDistinctRequestsAllBitIdentical)
{
    auto a = makeModel("union_find", 3e-3);
    auto b = makeModel("union_find", 5e-3);
    api::DecodeServiceOptions opts;
    opts.threads = 2;
    api::DecodeService service(opts);

    const std::size_t clients = 8;
    std::vector<api::DecodeOutcome> outcomes(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::this_thread::sleep_for(
                std::chrono::microseconds((c * 131) % 400));
            const auto &model = (c % 2 == 0) ? a : b;
            const char *key = (c % 2 == 0) ? "A" : "B";
            api::DecodeJob job =
                jobFor(model, key, 2048, 11 + c, 256, 0);
            outcomes[c] = service.measure(job);
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    for (std::size_t c = 0; c < clients; ++c) {
        const auto &model = (c % 2 == 0) ? a : b;
        decoder::LerResult ref = serialRef(*model, 2048, 11 + c, 256);
        SCOPED_TRACE("client=" + std::to_string(c));
        expectSameResult(outcomes[c].result, ref);
    }
    EXPECT_EQ(service.stats().requests, clients);
}

TEST(DecodeService, CoalescingDetectedDeterministically)
{
    // The gate holds request A's single shard in flight until request
    // B's shard starts decoding — B must therefore have been admitted
    // while A was active (or vice versa), so exactly one of the two is
    // counted as coalesced, regardless of scheduling.
    auto m = makeModel();
    GateState gate;
    GateDecoder prototype(&gate);
    api::DecodeService service;

    auto gatedJob = [&] {
        api::DecodeJob job = jobFor(m, "gated", 256, 3, 256, 1);
        job.prototype = &prototype;
        return job;
    };
    api::DecodeOutcome oa;
    api::DecodeOutcome ob;
    std::thread ta([&] { oa = service.measure(gatedJob()); });
    std::thread tb([&] { ob = service.measure(gatedJob()); });
    ta.join();
    tb.join();

    EXPECT_EQ(gate.entered.load(), 2);
    EXPECT_EQ(oa.result.shots, 256u);
    EXPECT_EQ(ob.result.shots, 256u);
    EXPECT_EQ((oa.coalesced ? 1 : 0) + (ob.coalesced ? 1 : 0), 1);
    EXPECT_EQ(service.stats().coalescedRequests, 1u);
}

// --- reruns and clones ------------------------------------------------------

TEST(DecodeService, IdenticalRerunDecodesEveryShard)
{
    auto m = makeModel();
    api::DecodeService service;
    api::DecodeJob job = jobFor(m, "d3", 1024, 7, 256);
    api::DecodeOutcome first = service.measure(job);
    EXPECT_EQ(service.stats().decodedShards, 4u);
    api::DecodeOutcome second = service.measure(job);
    expectSameResult(second.result, first.result);
    expectSameResult(second.result, serialRef(*m, 1024, 7, 256));
    EXPECT_EQ(service.stats().decodedShards, 8u)
        << "a rerun must sample and decode every shard again";
}

TEST(DecodeService, EachRequestClonesOncePerSlot)
{
    // Single-slot runs make the clone ledger exact: each request's first
    // shard clones the prototype and its 7 later shards reuse that
    // clone; nothing carries over to the next request.
    auto m = makeModel();
    api::DecodeService service;
    api::DecodeJob job = jobFor(m, "d3", 2048, 7, 256, 1);
    service.measure(job);
    api::DecodeServiceStats after1 = service.stats();
    EXPECT_EQ(after1.cloneMisses, 1u);
    EXPECT_EQ(after1.cloneHits, 7u);
    service.measure(job);
    api::DecodeServiceStats after2 = service.stats();
    EXPECT_EQ(after2.cloneMisses, 2u)
        << "the second request must make a clone of its own";
    EXPECT_EQ(after2.cloneHits, 14u);

    // Several slots: one clone per slot that ran a shard, at most the
    // slot cap, and every shard is a hit or a miss.
    api::DecodeServiceOptions opts;
    opts.threads = 2;
    api::DecodeService pooled(opts);
    pooled.measure(jobFor(m, "d3", 4096, 7, 256, 3));
    api::DecodeServiceStats st = pooled.stats();
    EXPECT_GE(st.cloneMisses, 1u);
    EXPECT_LE(st.cloneMisses, 3u);
    EXPECT_EQ(st.cloneHits + st.cloneMisses, 16u);

    // Two jobs in one run: a single slot clones each job's prototype
    // once, on reaching its first shard; with several slots every
    // decoded shard of both jobs is still a hit or a miss.
    auto other = makeModel("union_find", 5e-3);
    const api::DecodeJob two[2] = {jobFor(m, "d3", 2048, 7, 256, 1),
                                   jobFor(other, "d3b", 1024, 8, 256, 1)};
    api::DecodeService single;
    single.measure(two);
    api::DecodeServiceStats one = single.stats();
    EXPECT_EQ(one.decodedShards, 12u);
    EXPECT_EQ(one.cloneMisses, 2u);
    EXPECT_EQ(one.cloneHits, 10u);

    api::DecodeService pooledTwo(opts);
    api::DecodeJob wide[2] = {two[0], two[1]};
    for (api::DecodeJob &job : wide) {
        job.ler.threads = 3;
    }
    pooledTwo.measure(wide);
    api::DecodeServiceStats both = pooledTwo.stats();
    EXPECT_EQ(both.decodedShards, 12u);
    EXPECT_EQ(both.cloneHits + both.cloneMisses, both.decodedShards);
}

TEST(DecodeService, MultiJobRunHoldsAtMostOneClonePerSlot)
{
    // A slot that moves to the other job's shards drops its clone before
    // cloning the other prototype, so a two-job run never holds more
    // live clones than its slot cap (4: the caller and 3 workers).
    auto m = makeModel();
    CloneCount count;
    CountingDecoder protoA(&count);
    CountingDecoder protoB(&count);
    api::DecodeServiceOptions opts;
    opts.threads = 3;
    api::DecodeService service(opts);
    api::DecodeJob jobs[2] = {jobFor(m, "A", 4096, 1, 128, 0),
                              jobFor(m, "B", 4096, 2, 128, 0)};
    jobs[0].prototype = &protoA;
    jobs[1].prototype = &protoB;
    for (int rep = 0; rep < 3; ++rep) {
        service.measure(jobs);
        EXPECT_EQ(count.live.load(), 0) << "clones outlived the run";
    }
    EXPECT_GE(count.peak.load(), 1);
    EXPECT_LE(count.peak.load(), 4);
    api::DecodeServiceStats st = service.stats();
    EXPECT_EQ(st.decodedShards, 3 * 64u);
    EXPECT_EQ(st.cloneHits + st.cloneMisses, st.decodedShards);
}

// --- edge cases: zero shots, throwing decoders ------------------------------

TEST(DecodeService, ZeroShotJobIsEmptyAndUntracked)
{
    auto m = makeModel();
    api::DecodeService service;
    api::DecodeOutcome out = service.measure(jobFor(m, "d3", 0, 7, 256));
    EXPECT_EQ(out.result.shots, 0u);
    EXPECT_EQ(out.result.failures, 0u);
    EXPECT_FALSE(out.result.earlyStopped);
    EXPECT_FALSE(out.coalesced);
    api::DecodeServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_EQ(stats.decodedShards, 0u);
    EXPECT_EQ(stats.cloneMisses, 0u);
}

TEST(DecodeService, ThrowingShardReleasesAdmissionState)
{
    // A request whose shard throws must leave its key's in-flight count
    // and the pending-shard queue as it found them.
    auto m = makeModel();
    ThrowingDecoder throwing;
    api::DecodeService service;
    api::DecodeJob bad = jobFor(m, "d3", 4096, 7, 256, 1);
    bad.prototype = &throwing;
    EXPECT_THROW(service.measure(bad), std::runtime_error);

    api::DecodeOutcome next =
        service.measure(jobFor(m, "d3", 4096, 7, 256, 1));
    EXPECT_FALSE(next.coalesced);
    EXPECT_EQ(next.queueDepth, 16u);
    EXPECT_EQ(service.stats().coalescedRequests, 0u);
    expectSameResult(next.result, serialRef(*m, 4096, 7, 256));
}

TEST(DecodeService, ThrowingJobReleasesBothJobsOfARun)
{
    // Two jobs in one run, only one of whose decoders throws: whichever
    // of the two runs first, on one slot or several, neither key may
    // stay in flight and no shard of either may stay queued.
    auto m = makeModel();
    ThrowingDecoder throwing;
    api::DecodeServiceOptions opts;
    opts.threads = 3;
    for (bool badFirst : {false, true}) {
        for (std::size_t threads : {1u, 0u}) {
            SCOPED_TRACE(std::string(badFirst ? "bad first" : "bad second") +
                         " threads=" + std::to_string(threads));
            api::DecodeService service(opts);
            api::DecodeJob good = jobFor(m, "good", 4096, 7, 256, threads);
            api::DecodeJob bad = jobFor(m, "bad", 2048, 8, 256, threads);
            bad.prototype = &throwing;
            const api::DecodeJob run[2] = {badFirst ? bad : good,
                                           badFirst ? good : bad};
            EXPECT_THROW(service.measure(run), std::runtime_error);

            for (const char *key : {"good", "bad"}) {
                SCOPED_TRACE(key);
                api::DecodeOutcome next =
                    service.measure(jobFor(m, key, 4096, 7, 256, threads));
                EXPECT_FALSE(next.coalesced);
                EXPECT_EQ(next.queueDepth, 16u);
                expectSameResult(next.result, serialRef(*m, 4096, 7, 256));
            }
            EXPECT_EQ(service.stats().coalescedRequests, 0u);
        }
    }
}

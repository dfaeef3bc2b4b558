/**
 * @file
 * Tests for the checkpointable/shardable sweep layer
 * (api/sweep_checkpoint.h): serialization round-trips, atomic
 * persistence, corrupt-input rejection, fingerprint binding, bit-exact
 * resume at every interruption offset, and shard-merge equivalence with
 * the serial oracle.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/sweep_checkpoint.h"
#include "circuit/surface_schedules.h"
#include "code/surface.h"

using namespace prophunt;

namespace {

circuit::SmSchedule
d3Schedule()
{
    code::SurfaceCode s(3);
    return circuit::nzSchedule(s);
}

/** Small SPRT sweep whose grid has several chunks per point. */
api::SweepRequest
sprtRequest()
{
    api::SweepRequest req(d3Schedule());
    req.rounds = 3;
    req.ps = {1e-3, 1.6e-2};
    req.decoder = "union_find";
    req.shotsPerPoint = 2048;
    req.seed = 13;
    req.ler.threads = 1;
    req.sprt.enabled = true;
    req.sprt.decisionLer = 0.02;
    req.sprt.chunkShots = 256;
    req.sprt.minShots = 128;
    return req;
}

/** A filled-in checkpoint with a mix of done and pending cells. */
api::SweepCheckpoint
sampleCheckpoint()
{
    api::SweepCheckpoint cp = api::makeSweepCheckpoint(sprtRequest());
    api::SweepChunkTally t;
    t.done = true;
    t.zShots = 256;
    t.zFailures = 1;
    t.xShots = 256;
    t.xFailures = 2;
    cp.points[0].chunks[0] = t;
    t.zFailures = 0;
    t.zEarlyStopped = true;
    cp.points[1].chunks[3] = t;
    return cp;
}

void
expectEqualCheckpoints(const api::SweepCheckpoint &a,
                       const api::SweepCheckpoint &b)
{
    EXPECT_EQ(a.version, b.version);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.shardIndex, b.shardIndex);
    EXPECT_EQ(a.shardCount, b.shardCount);
    EXPECT_EQ(a.shotsPerPoint, b.shotsPerPoint);
    EXPECT_EQ(a.chunkShots, b.chunkShots);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.sprt.enabled, b.sprt.enabled);
    EXPECT_EQ(a.sprt.decisionLer, b.sprt.decisionLer);
    EXPECT_EQ(a.sprt.margin, b.sprt.margin);
    EXPECT_EQ(a.sprt.alpha, b.sprt.alpha);
    EXPECT_EQ(a.sprt.beta, b.sprt.beta);
    EXPECT_EQ(a.sprt.chunkShots, b.sprt.chunkShots);
    EXPECT_EQ(a.sprt.minShots, b.sprt.minShots);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].p, b.points[i].p);
        ASSERT_EQ(a.points[i].chunks.size(), b.points[i].chunks.size());
        for (std::size_t c = 0; c < a.points[i].chunks.size(); ++c) {
            EXPECT_TRUE(a.points[i].chunks[c] == b.points[i].chunks[c])
                << "point " << i << " chunk " << c;
        }
    }
}

void
expectEqualResults(const api::SweepResult &a, const api::SweepResult &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].memory.z.shots, b.points[i].memory.z.shots)
            << "point " << i;
        EXPECT_EQ(a.points[i].memory.z.failures,
                  b.points[i].memory.z.failures)
            << "point " << i;
        EXPECT_EQ(a.points[i].memory.x.shots, b.points[i].memory.x.shots)
            << "point " << i;
        EXPECT_EQ(a.points[i].memory.x.failures,
                  b.points[i].memory.x.failures)
            << "point " << i;
        EXPECT_EQ(a.points[i].decision, b.points[i].decision)
            << "point " << i;
    }
}

/** Unique-ish per-test scratch file, removed on destruction. */
struct ScratchFile
{
    std::string path;
    explicit ScratchFile(const std::string &name)
        : path("sweep_ckpt_test_" + name + ".json")
    {
        std::remove(path.c_str());
    }
    ~ScratchFile()
    {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
};

bool
fileExists(const std::string &path)
{
    std::ifstream in(path);
    return in.good();
}

} // namespace

// --- grid -------------------------------------------------------------------

TEST(SweepGrid, SprtGridShape)
{
    api::SweepGrid grid = api::sweepGridFor(sprtRequest());
    EXPECT_EQ(grid.numPoints, 2u);
    EXPECT_EQ(grid.chunkShots, 256u);
    EXPECT_TRUE(grid.sprt);
    EXPECT_EQ(grid.chunksPerPoint(), 8u);
    EXPECT_EQ(grid.totalCells(), 16u);
    EXPECT_EQ(grid.chunkSize(7), 256u);
    EXPECT_EQ(grid.cellIndex(1, 3), 11u);
}

TEST(SweepGrid, FixedBudgetIsOneChunkPerPoint)
{
    api::SweepRequest req = sprtRequest();
    req.sprt.enabled = false;
    api::SweepGrid grid = api::sweepGridFor(req);
    EXPECT_FALSE(grid.sprt);
    EXPECT_EQ(grid.chunksPerPoint(), 1u);
    EXPECT_EQ(grid.chunkShots, req.shotsPerPoint);
}

TEST(SweepGrid, ChunkShotsZeroClampsToOne)
{
    api::SweepRequest req = sprtRequest();
    req.sprt.chunkShots = 0;
    api::SweepGrid grid = api::sweepGridFor(req);
    EXPECT_EQ(grid.chunkShots, 1u);
    EXPECT_EQ(grid.chunksPerPoint(), req.shotsPerPoint);
}

TEST(SweepGrid, ShardOwnershipPartitionsCells)
{
    api::SweepGrid grid = api::sweepGridFor(sprtRequest());
    for (std::size_t count = 1; count <= 4; ++count) {
        for (std::size_t p = 0; p < grid.numPoints; ++p) {
            for (std::size_t c = 0; c < grid.chunksPerPoint(); ++c) {
                std::size_t owners = 0;
                for (std::size_t i = 0; i < count; ++i) {
                    owners += grid.ownsCell(i, count, p, c) ? 1 : 0;
                }
                EXPECT_EQ(owners, 1u)
                    << "count=" << count << " p=" << p << " c=" << c;
            }
        }
    }
}

// --- serialization ----------------------------------------------------------

TEST(SweepCheckpoint, JsonRoundTripIsExact)
{
    api::SweepCheckpoint cp = sampleCheckpoint();
    api::SweepCheckpoint back = api::SweepCheckpoint::fromJson(cp.toJson());
    expectEqualCheckpoints(cp, back);
}

TEST(SweepCheckpoint, HighBitSeedSurvivesRoundTrip)
{
    // uint64 values above 2^53 corrupt through doubles; the format must
    // not lose them.
    api::SweepRequest req = sprtRequest();
    req.seed = 0xFFFFFFFFFFFFFFFFULL;
    api::SweepCheckpoint cp = api::makeSweepCheckpoint(req);
    api::SweepCheckpoint back = api::SweepCheckpoint::fromJson(cp.toJson());
    EXPECT_EQ(back.seed, 0xFFFFFFFFFFFFFFFFULL);
    EXPECT_EQ(back.fingerprint, cp.fingerprint);
}

TEST(SweepCheckpoint, SaveAtomicLoadRoundTripsAndLeavesNoTemp)
{
    ScratchFile f("save_load");
    api::SweepCheckpoint cp = sampleCheckpoint();
    cp.saveAtomic(f.path);
    EXPECT_TRUE(fileExists(f.path));
    EXPECT_FALSE(fileExists(f.path + ".tmp"))
        << "temp file must be renamed away";
    expectEqualCheckpoints(cp, api::SweepCheckpoint::load(f.path));
}

TEST(SweepCheckpoint, LoadMissingThrowsAndLoadIfExistsReturnsEmpty)
{
    EXPECT_THROW(api::SweepCheckpoint::load("no_such_checkpoint.json"),
                 std::runtime_error);
    EXPECT_FALSE(
        api::SweepCheckpoint::loadIfExists("no_such_checkpoint.json")
            .has_value());
}

TEST(SweepCheckpoint, RejectsCorruptInput)
{
    std::string good = sampleCheckpoint().toJson();

    // Truncation inside the document must throw, never return garbage
    // (good ends "]\n}\n", so -2 cuts the closing brace off).
    for (std::size_t len : {0ul, 1ul, good.size() / 2, good.size() - 2}) {
        EXPECT_THROW(api::SweepCheckpoint::fromJson(good.substr(0, len)),
                     std::runtime_error)
            << "truncated to " << len << " bytes";
    }
    EXPECT_THROW(api::SweepCheckpoint::fromJson("not json at all"),
                 std::runtime_error);
    EXPECT_THROW(api::SweepCheckpoint::fromJson("{}"), std::runtime_error);

    // Wrong format marker and unsupported version are refused.
    std::string wrong_format = good;
    wrong_format.replace(wrong_format.find("prophunt-sweep-checkpoint"),
                         std::string("prophunt-sweep-checkpoint").size(),
                         "prophunt-other-file-format!!");
    EXPECT_THROW(api::SweepCheckpoint::fromJson(wrong_format),
                 std::runtime_error);

    std::string wrong_version = good;
    std::size_t vpos = wrong_version.find("\"version\": 1");
    ASSERT_NE(vpos, std::string::npos);
    wrong_version.replace(vpos, 12, "\"version\": 9");
    EXPECT_THROW(api::SweepCheckpoint::fromJson(wrong_version),
                 std::runtime_error);
}

TEST(SweepCheckpoint, RejectsInconsistentTallies)
{
    // failures > shots cannot come from a real run.
    api::SweepCheckpoint cp = sampleCheckpoint();
    cp.points[0].chunks[0].zFailures = cp.points[0].chunks[0].zShots + 1;
    EXPECT_THROW(api::SweepCheckpoint::fromJson(cp.toJson()),
                 std::runtime_error);
}

TEST(SweepCheckpoint, LoadCorruptFileMentionsPath)
{
    ScratchFile f("corrupt");
    {
        std::ofstream out(f.path);
        out << "{\"format\": \"prophunt-sweep-checkpoint\", truncated";
    }
    try {
        api::SweepCheckpoint::load(f.path);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(f.path), std::string::npos)
            << "error should name the offending file: " << e.what();
    }
}

// --- fingerprint ------------------------------------------------------------

TEST(SweepFingerprint, BindsTallyAffectingFields)
{
    api::SweepRequest base = sprtRequest();
    uint64_t fp = api::sweepFingerprint(base);

    api::SweepRequest changed = base;
    changed.seed = 14;
    EXPECT_NE(api::sweepFingerprint(changed), fp);

    changed = base;
    changed.ps = {1e-3, 1.7e-2};
    EXPECT_NE(api::sweepFingerprint(changed), fp);

    changed = base;
    changed.sprt.decisionLer = 0.03;
    EXPECT_NE(api::sweepFingerprint(changed), fp);

    changed = base;
    changed.shotsPerPoint = 4096;
    EXPECT_NE(api::sweepFingerprint(changed), fp);

    changed = base;
    changed.decoder = "matching";
    EXPECT_NE(api::sweepFingerprint(changed), fp);

    // Decoder options bind too, down to the last bit of a double.
    decoder::BpOsdOptions bp;
    changed = base;
    changed.decoder = {"bp_osd", bp};
    uint64_t bpFp = api::sweepFingerprint(changed);
    bp.scale = 0.8000001;
    changed.decoder = {"bp_osd", bp};
    EXPECT_NE(api::sweepFingerprint(changed), bpFp);
}

TEST(SweepFingerprint, IgnoresExecutionOnlyKnobs)
{
    api::SweepRequest base = sprtRequest();
    uint64_t fp = api::sweepFingerprint(base);

    api::SweepRequest changed = base;
    changed.ler.threads = 7;
    changed.shard.index = 1;
    changed.shard.count = 3;
    changed.checkpointPath = "elsewhere.json";
    changed.checkpointEveryChunks = 99;
    EXPECT_EQ(api::sweepFingerprint(changed), fp)
        << "threads/shard/checkpoint knobs never change a tally";
}

TEST(SweepFingerprint, EngineRejectsMismatchedResume)
{
    ScratchFile f("fp_mismatch");
    api::SweepRequest req = sprtRequest();
    api::makeSweepCheckpoint(req).saveAtomic(f.path);

    api::SweepRequest other = req;
    other.seed = 999;
    other.checkpointPath = f.path;
    api::Engine engine;
    EXPECT_THROW(engine.run(other), std::runtime_error)
        << "resuming a different request's checkpoint must be refused";
}

// --- validation -------------------------------------------------------------

TEST(SweepValidation, SprtWithoutDecisionLerThrowsActionably)
{
    api::SweepRequest req = sprtRequest();
    req.sprt.decisionLer = 0.0; // the default a caller forgets to set
    try {
        api::validateSweepRequest(req);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("decisionLer"),
                  std::string::npos)
            << "error should name the field to fix: " << e.what();
    }
}

TEST(SweepValidation, ShardIndexOutsideCountThrows)
{
    api::SweepRequest req = sprtRequest();
    req.shard.index = 2;
    req.shard.count = 2;
    EXPECT_THROW(api::validateSweepRequest(req), std::invalid_argument);
    req.shard.count = 0;
    EXPECT_THROW(api::validateSweepRequest(req), std::invalid_argument);
}

TEST(SweepValidation, AcceptsGoodRequests)
{
    EXPECT_NO_THROW(api::validateSweepRequest(sprtRequest()));
    api::SweepRequest fixed = sprtRequest();
    fixed.sprt.enabled = false;
    fixed.sprt.decisionLer = 0.0; // fine when SPRT is off
    EXPECT_NO_THROW(api::validateSweepRequest(fixed));
    api::SweepRequest clamped = sprtRequest();
    clamped.sprt.chunkShots = 0; // clamps to 1, not an error
    EXPECT_NO_THROW(api::validateSweepRequest(clamped));
}

// --- resume -----------------------------------------------------------------

TEST(SweepResume, EveryInterruptionOffsetResumesBitIdentically)
{
    api::SweepRequest req = sprtRequest();
    api::Engine engine;
    api::SweepResult oracle = engine.run(req);

    // A completed checkpointed run gives the full cell tallies...
    ScratchFile full_file("resume_full");
    api::SweepRequest ck_req = req;
    ck_req.checkpointPath = full_file.path;
    ck_req.checkpointEveryChunks = 1;
    expectEqualResults(engine.run(ck_req), oracle);
    api::SweepCheckpoint full = api::SweepCheckpoint::load(full_file.path);

    // ...from which we can reconstruct the checkpoint a SIGKILL would
    // have left after any number of completed cells, and resume it.
    api::SweepGrid grid = api::sweepGridFor(req);
    for (std::size_t cut = 0; cut <= grid.totalCells(); ++cut) {
        ScratchFile f("resume_cut");
        api::SweepCheckpoint partial = api::makeSweepCheckpoint(req);
        for (std::size_t p = 0; p < grid.numPoints; ++p) {
            for (std::size_t c = 0; c < grid.chunksPerPoint(); ++c) {
                if (grid.cellIndex(p, c) < cut) {
                    partial.points[p].chunks[c] = full.points[p].chunks[c];
                }
            }
        }
        partial.saveAtomic(f.path);
        api::SweepRequest resume = req;
        resume.checkpointPath = f.path;
        api::SweepResult resumed = engine.run(resume);
        SCOPED_TRACE("resumed after " + std::to_string(cut) + " cells");
        expectEqualResults(resumed, oracle);
    }
}

TEST(SweepResume, CompleteCheckpointResumesWithZeroNewShots)
{
    ScratchFile f("resume_noop");
    api::SweepRequest req = sprtRequest();
    req.checkpointPath = f.path;
    api::Engine engine;
    api::SweepResult first = engine.run(req);
    api::SweepResult again = engine.run(req);
    expectEqualResults(again, first);
    EXPECT_EQ(again.telemetry.shots, 0u)
        << "a complete checkpoint leaves nothing to sample";
}

TEST(SweepResume, ChunkShotsZeroBehavesAsChunkShotsOne)
{
    api::SweepRequest req = sprtRequest();
    req.shotsPerPoint = 48;
    req.ps = {1.6e-2};
    req.sprt.minShots = 8;
    req.sprt.chunkShots = 1;
    api::Engine engine;
    api::SweepResult one = engine.run(req);
    req.sprt.chunkShots = 0;
    api::SweepResult zero = engine.run(req);
    expectEqualResults(zero, one);
}

// --- sharding + merge -------------------------------------------------------

TEST(SweepShard, MergeMatchesSerialAcrossShardAndThreadCounts)
{
    api::SweepRequest req = sprtRequest();
    api::Engine engine;
    api::SweepResult oracle = engine.run(req);

    for (std::size_t count : {2u, 3u}) {
        for (std::size_t threads : {1u, 2u}) {
            std::vector<api::SweepCheckpoint> parts;
            for (std::size_t i = 0; i < count; ++i) {
                ScratchFile f("shard_" + std::to_string(count) + "_" +
                              std::to_string(i));
                api::SweepRequest shard = req;
                shard.ler.threads = threads;
                shard.shard.index = i;
                shard.shard.count = count;
                shard.checkpointPath = f.path;
                (void)engine.run(shard);
                parts.push_back(api::SweepCheckpoint::load(f.path));
            }
            // Merge order must not matter: reverse arrival.
            std::vector<api::SweepCheckpoint> reversed(parts.rbegin(),
                                                       parts.rend());
            api::SweepFinalize fin =
                api::finalizeSweep(api::mergeSweepCheckpoints(reversed));
            SCOPED_TRACE("shards=" + std::to_string(count) +
                         " threads=" + std::to_string(threads));
            EXPECT_TRUE(fin.complete);
            expectEqualResults(fin.result, oracle);
        }
    }
}

TEST(SweepShard, MergeRejectsForeignAndConflictingShards)
{
    api::SweepRequest req = sprtRequest();
    api::SweepCheckpoint a = api::makeSweepCheckpoint(req);

    // Different request entirely.
    api::SweepRequest other_req = req;
    other_req.seed = 1234;
    api::SweepCheckpoint other = api::makeSweepCheckpoint(other_req);
    EXPECT_THROW(api::mergeSweepCheckpoints({a, other}),
                 std::runtime_error);

    // Same request, disagreeing tallies for the same completed cell.
    api::SweepCheckpoint b = api::makeSweepCheckpoint(req);
    api::SweepChunkTally t;
    t.done = true;
    t.zShots = 256;
    t.zFailures = 1;
    t.xShots = 256;
    t.xFailures = 0;
    a.points[0].chunks[0] = t;
    t.zFailures = 2;
    b.points[0].chunks[0] = t;
    EXPECT_THROW(api::mergeSweepCheckpoints({a, b}), std::runtime_error);

    // Agreement is fine and unions the cells.
    t.zFailures = 1;
    b.points[0].chunks[0] = t;
    api::SweepChunkTally u = t;
    u.xFailures = 3;
    b.points[1].chunks[2] = u;
    api::SweepCheckpoint merged = api::mergeSweepCheckpoints({a, b});
    EXPECT_TRUE(merged.points[0].chunks[0] == t);
    EXPECT_TRUE(merged.points[1].chunks[2] == u);
    EXPECT_EQ(merged.shardCount, 1u);

    EXPECT_THROW(api::mergeSweepCheckpoints({}), std::runtime_error);
}

TEST(SweepShard, LateChunksCannotFlipAnEarlyDecision)
{
    // Build a checkpoint whose canonical prefix decides Below after two
    // chunks, then poison every later chunk with catastrophic failure
    // counts. The canonical evaluation must never read them.
    api::SweepRequest req = sprtRequest();
    req.ps = {1e-3};
    api::SweepCheckpoint cp = api::makeSweepCheckpoint(req);
    api::SweepGrid grid = api::sweepGridFor(req);
    for (std::size_t c = 0; c < grid.chunksPerPoint(); ++c) {
        api::SweepChunkTally t;
        t.done = true;
        t.zShots = 256;
        t.xShots = 256;
        if (c >= 2) { // a "late shard" reporting absurd failures
            t.zFailures = 256;
            t.xFailures = 256;
        }
        cp.points[0].chunks[c] = t;
    }
    api::SweepPrefix pre =
        api::evalSweepPrefix(cp.points[0], grid, cp.sprt);
    EXPECT_EQ(pre.decision, api::SprtDecision::Below);
    EXPECT_LE(pre.chunksConsumed, 2u);

    api::SweepFinalize fin = api::finalizeSweep(cp);
    ASSERT_EQ(fin.result.points.size(), 1u);
    EXPECT_EQ(fin.result.points[0].decision, api::SprtDecision::Below);
    EXPECT_EQ(fin.result.points[0].memory.z.failures, 0u)
        << "post-decision chunks must not leak into the tallies";
    EXPECT_TRUE(fin.complete);
}

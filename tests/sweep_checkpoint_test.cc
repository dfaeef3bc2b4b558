/**
 * @file
 * Tests for the checkpointable sweep layer (api/sweep_checkpoint.h):
 * serialization round-trips, atomic persistence, corrupt-input
 * rejection, fingerprint binding, bit-exact resume at every interruption
 * offset, and the canonical-order decision rule.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
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

TEST(SweepCheckpointGrid, SprtGridShape)
{
    api::SweepCheckpoint cp = api::makeSweepCheckpoint(sprtRequest());
    EXPECT_EQ(cp.points.size(), 2u);
    EXPECT_EQ(cp.chunkShots, 256u);
    EXPECT_TRUE(cp.sprt.enabled);
    EXPECT_EQ(cp.chunksPerPoint(), 8u);
    EXPECT_EQ(cp.chunkSize(7), 256u);
}

TEST(SweepCheckpointGrid, FixedBudgetIsOneChunkPerPoint)
{
    api::SweepRequest req = sprtRequest();
    req.sprt.enabled = false;
    api::SweepCheckpoint cp = api::makeSweepCheckpoint(req);
    EXPECT_FALSE(cp.sprt.enabled);
    EXPECT_EQ(cp.chunksPerPoint(), 1u);
    EXPECT_EQ(cp.chunkShots, req.shotsPerPoint);
}

TEST(SweepCheckpointGrid, ChunkShotsZeroClampsToOne)
{
    api::SweepRequest req = sprtRequest();
    req.sprt.chunkShots = 0;
    api::SweepCheckpoint cp = api::makeSweepCheckpoint(req);
    EXPECT_EQ(cp.chunkShots, 1u);
    EXPECT_EQ(cp.chunksPerPoint(), req.shotsPerPoint);
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

TEST(SweepCheckpoint, RejectsVersionsThatNarrowToTheCurrentOne)
{
    // 2^32 + 1 and 2^33 + 1 are unsupported versions, not version 1: the
    // check must see the parsed integer before any narrowing to int.
    std::string good = sampleCheckpoint().toJson();
    for (const char *v : {"4294967297", "8589934593"}) {
        std::string json = good;
        std::size_t vpos = json.find("\"version\": 1,");
        ASSERT_NE(vpos, std::string::npos);
        json.replace(vpos, 13, std::string("\"version\": ") + v + ",");
        EXPECT_THROW(api::SweepCheckpoint::fromJson(json),
                     std::runtime_error)
            << v;
    }
}

TEST(SweepCheckpoint, RejectsNumbersBeyondUint64)
{
    // Each must be range-checked before any conversion to an integer:
    // casting an out-of-range double is undefined behaviour, which the
    // float-cast-overflow sanitizer reports.
    std::string good = sampleCheckpoint().toJson();
    auto replaced = [&](const std::string &from, const std::string &to) {
        std::string json = good;
        std::size_t pos = json.find(from);
        EXPECT_NE(pos, std::string::npos) << from;
        return pos == std::string::npos ? json
                                        : json.replace(pos, from.size(), to);
    };
    for (const char *big : {"1e30", "18446744073709551616"}) {
        EXPECT_THROW(api::SweepCheckpoint::fromJson(replaced(
                         "\"shots_per_point\": 2048",
                         std::string("\"shots_per_point\": ") + big)),
                     std::runtime_error)
            << big;
        EXPECT_THROW(api::SweepCheckpoint::fromJson(replaced(
                         "[256,1,256,2", std::string("[") + big + ",1,256,2")),
                     std::runtime_error)
            << big;
    }
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
    changed.decoder = "bp_osd";
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
    changed.checkpointPath = "elsewhere.json";
    changed.checkpointEveryChunks = 99;
    EXPECT_EQ(api::sweepFingerprint(changed), fp)
        << "thread and checkpoint knobs never change a tally";
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

TEST(SweepValidation, OutOfRangeNoiseIsRejectedBeforeAnyShot)
{
    // The bad value sits after a good point: it must be refused at
    // admission, not after the first point has been sampled.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {1.5, -1e-3, nan, inf}) {
        SCOPED_TRACE("bad value " + std::to_string(bad));
        for (bool sprt : {false, true}) {
            api::SweepRequest req = sprtRequest();
            req.sprt.enabled = sprt;
            req.ps = {1e-3, bad};
            api::Engine engine;
            EXPECT_THROW(engine.run(req), std::invalid_argument);
            EXPECT_EQ(engine.serviceStats().decodedShards, 0u);

            req.ps = {1e-3};
            req.pIdle = bad;
            EXPECT_THROW(engine.run(req), std::invalid_argument);
            EXPECT_EQ(engine.serviceStats().decodedShards, 0u);
        }
    }
    api::SweepRequest edges = sprtRequest();
    edges.ps = {0.0, 1.0};
    edges.pIdle = 1.0;
    EXPECT_NO_THROW(api::validateSweepRequest(edges));
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
    const api::SweepCheckpoint grid = api::makeSweepCheckpoint(req);
    const std::size_t per_point = grid.chunksPerPoint();
    for (std::size_t cut = 0; cut <= grid.points.size() * per_point; ++cut) {
        ScratchFile f("resume_cut");
        api::SweepCheckpoint partial = api::makeSweepCheckpoint(req);
        for (std::size_t p = 0; p < grid.points.size(); ++p) {
            for (std::size_t c = 0; c < per_point; ++c) {
                if (p * per_point + c < cut) {
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

TEST(SweepResume, ShardSliceCheckpointFromOlderWriterResumes)
{
    // Earlier builds could run one slice of a sweep per process and wrote
    // "shard_index"/"shard_count" into the checkpoint. Such a file is a
    // partial checkpoint of the same request: the reader ignores the two
    // keys and a resume fills in the missing cells.
    api::SweepRequest req = sprtRequest();
    api::Engine engine;
    api::SweepResult oracle = engine.run(req);

    ScratchFile full_file("slice_full");
    api::SweepRequest ck_req = req;
    ck_req.checkpointPath = full_file.path;
    (void)engine.run(ck_req);
    api::SweepCheckpoint full = api::SweepCheckpoint::load(full_file.path);

    // Slice 1 of 3 owned the cells whose canonical index is 1 mod 3.
    const api::SweepCheckpoint grid = api::makeSweepCheckpoint(req);
    const std::size_t per_point = grid.chunksPerPoint();
    api::SweepCheckpoint slice = api::makeSweepCheckpoint(req);
    for (std::size_t p = 0; p < grid.points.size(); ++p) {
        for (std::size_t c = 0; c < per_point; ++c) {
            if ((p * per_point + c) % 3 == 1) {
                slice.points[p].chunks[c] = full.points[p].chunks[c];
            }
        }
    }
    std::string json = slice.toJson();
    std::size_t seed_pos = json.find("  \"seed\"");
    ASSERT_NE(seed_pos, std::string::npos);
    json.insert(seed_pos,
                "  \"shard_index\": 1,\n  \"shard_count\": 3,\n");

    ScratchFile f("slice_resume");
    {
        std::ofstream out(f.path);
        out << json;
    }
    api::SweepRequest resume = req;
    resume.checkpointPath = f.path;
    expectEqualResults(engine.run(resume), oracle);
    expectEqualCheckpoints(api::SweepCheckpoint::load(f.path), full);
}

// --- canonical evaluation ---------------------------------------------------

TEST(SweepPrefix, LateChunksCannotFlipAnEarlyDecision)
{
    // Build a checkpoint whose canonical prefix decides Below after two
    // chunks, then poison every later chunk with catastrophic failure
    // counts. The canonical evaluation must never read them.
    api::SweepRequest req = sprtRequest();
    req.ps = {1e-3};
    api::SweepCheckpoint cp = api::makeSweepCheckpoint(req);
    for (std::size_t c = 0; c < cp.chunksPerPoint(); ++c) {
        api::SweepChunkTally t;
        t.done = true;
        t.zShots = 256;
        t.xShots = 256;
        if (c >= 2) { // completed late chunks with absurd failures
            t.zFailures = 256;
            t.xFailures = 256;
        }
        cp.points[0].chunks[c] = t;
    }
    api::SweepPrefix pre = api::evalSweepPrefix(cp, 0);
    EXPECT_EQ(pre.decision, api::SprtDecision::Below);
    EXPECT_LE(pre.chunksConsumed, 2u);

    api::SweepFinalize fin = api::finalizeSweep(cp);
    ASSERT_EQ(fin.result.points.size(), 1u);
    EXPECT_EQ(fin.result.points[0].decision, api::SprtDecision::Below);
    EXPECT_EQ(fin.result.points[0].memory.z.failures, 0u)
        << "post-decision chunks must not leak into the tallies";
    EXPECT_TRUE(fin.complete);
}

// --- golden tallies ---------------------------------------------------------
//
// Literal per-point tallies recorded from the reference implementation.
// The resume tests compare two runs of the same code; these pin what the
// sweep actually reports, so a change to the prefix rule cannot move both
// sides of a comparison together.

namespace {

struct GoldenPoint
{
    std::size_t zShots, zFailures;
    bool zEarlyStopped;
    std::size_t xShots, xFailures;
    bool xEarlyStopped;
    api::SprtDecision decision;
};

void
expectGolden(const api::SweepResult &r,
             const std::vector<GoldenPoint> &golden)
{
    ASSERT_EQ(r.points.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); ++i) {
        const api::SweepPointResult &pt = r.points[i];
        const GoldenPoint &g = golden[i];
        SCOPED_TRACE("point " + std::to_string(i));
        EXPECT_EQ(pt.memory.z.shots, g.zShots);
        EXPECT_EQ(pt.memory.z.failures, g.zFailures);
        EXPECT_EQ(pt.memory.z.earlyStopped, g.zEarlyStopped);
        EXPECT_EQ(pt.memory.x.shots, g.xShots);
        EXPECT_EQ(pt.memory.x.failures, g.xFailures);
        EXPECT_EQ(pt.memory.x.earlyStopped, g.xEarlyStopped);
        EXPECT_EQ(pt.decision, g.decision);
    }
}

} // namespace

TEST(SweepGolden, FixedBudgetWithMaxFailures)
{
    // 256-shot shards let maxFailures = 20 stop the high-p point early.
    // decisionLer stays set, so each point is classified by the
    // fixed-budget rule.
    api::SweepRequest req = sprtRequest();
    req.sprt.enabled = false;
    req.ler.shardShots = 256;
    req.ler.maxFailures = 20;
    api::Engine engine;
    expectGolden(engine.run(req),
                 {{2048, 1, false, 2048, 2, false, api::SprtDecision::Below},
                  {512, 41, true, 512, 33, true, api::SprtDecision::Above}});
}

TEST(SweepGolden, SprtDecidedEarlyAndOutOfBudget)
{
    // p = 5e-3 exhausts its 1024 shots inside the indifference zone and
    // falls back to the fixed-budget rule.
    api::SweepRequest req = sprtRequest();
    req.ps = {1e-3, 4e-3, 5e-3};
    req.shotsPerPoint = 1024;
    api::Engine engine;
    expectGolden(engine.run(req),
                 {{256, 0, true, 256, 0, true, api::SprtDecision::Below},
                  {768, 6, true, 768, 5, true, api::SprtDecision::Below},
                  {1024, 9, false, 1024, 14, false,
                   api::SprtDecision::Above}});
}

TEST(SweepGolden, SprtWithMaxFailuresTruncatingChunks)
{
    // 64-shot shards and maxFailures = 3 cut chunks short. The p = 4e-3
    // point runs out of budget with truncated chunks, so its tallies'
    // early-stop flags do not surface; the decided points report
    // earlyStopped from their decision.
    api::SweepRequest req = sprtRequest();
    req.ps = {1e-3, 4e-3, 1.6e-2};
    req.shotsPerPoint = 768;
    req.ler.shardShots = 64;
    req.ler.maxFailures = 3;
    api::Engine engine;
    expectGolden(engine.run(req),
                 {{256, 0, true, 256, 0, true, api::SprtDecision::Below},
                  {640, 7, false, 768, 5, false, api::SprtDecision::Below},
                  {128, 6, true, 128, 10, true, api::SprtDecision::Above}});
}

TEST(SweepGolden, ZeroShotPointIsEmptyInBothModes)
{
    api::SweepRequest req = sprtRequest();
    req.ps = {1e-3};
    req.shotsPerPoint = 0;
    api::Engine engine;
    expectGolden(engine.run(req),
                 {{0, 0, false, 0, 0, false, api::SprtDecision::None}});
    req.sprt.enabled = false;
    expectGolden(engine.run(req),
                 {{0, 0, false, 0, 0, false, api::SprtDecision::None}});
    EXPECT_EQ(engine.serviceStats().decodedShards, 0u);
}

TEST(SweepGolden, FingerprintAndCheckpointJson)
{
    EXPECT_EQ(api::sweepFingerprint(sprtRequest()), 0xbcac49a6826c30afULL);
    EXPECT_EQ(sampleCheckpoint().toJson(),
              "{\n"
              "  \"format\": \"prophunt-sweep-checkpoint\",\n"
              "  \"version\": 1,\n"
              "  \"fingerprint\": \"bcac49a6826c30af\",\n"
              "  \"seed\": \"000000000000000d\",\n"
              "  \"shots_per_point\": 2048,\n"
              "  \"chunk_shots\": 256,\n"
              "  \"sprt\": {\"enabled\": true, \"decision_ler\": 0.02, "
              "\"margin\": 2, \"alpha\": 0.001, \"beta\": 0.001, "
              "\"chunk_shots\": 256, \"min_shots\": 128},\n"
              "  \"points\": [\n"
              "    {\"p\": 0.001, \"chunks\": "
              "[[256,1,256,2,0,0],null,null,null,null,null,null,null]},\n"
              "    {\"p\": 0.016, \"chunks\": "
              "[null,null,null,[256,0,256,2,1,0],null,null,null,null]}\n"
              "  ]\n"
              "}\n");
}

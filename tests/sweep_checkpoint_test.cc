/**
 * @file
 * Tests for the checkpointable sweep layer (api/sweep_checkpoint.h):
 * serialization round-trips, atomic persistence, corrupt-input and
 * old-version rejection, fingerprint binding, unusable paths refused
 * before any shot (with the read error's cause), and bit-exact resume
 * at every point boundary.
 */
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
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

/** Small two-point fixed-budget sweep. */
api::SweepRequest
baseRequest()
{
    api::SweepRequest req(d3Schedule());
    req.rounds = 3;
    req.ps = {1e-3, 1.6e-2};
    req.decoder = "union_find";
    req.shotsPerPoint = 2048;
    req.seed = 13;
    req.ler.threads = 1;
    return req;
}

/** Three fixed-budget points; 256-shot shards let maxFailures = 20 stop
 * the p = 1.6e-2 point early. */
api::SweepRequest
fixedRequest()
{
    api::SweepRequest req(d3Schedule());
    req.rounds = 3;
    req.ps = {1e-3, 4e-3, 1.6e-2};
    req.decoder = "union_find";
    req.shotsPerPoint = 2048;
    req.seed = 13;
    req.ler.threads = 1;
    req.ler.shardShots = 256;
    req.ler.maxFailures = 20;
    return req;
}

/** A filled-in checkpoint with a mix of done and pending points. */
api::SweepCheckpoint
sampleCheckpoint()
{
    api::SweepCheckpoint cp = api::makeSweepCheckpoint(fixedRequest());
    cp.points[0] = {.p = cp.points[0].p,
                    .done = true,
                    .zShots = 2048,
                    .zFailures = 1,
                    .xShots = 2048,
                    .xFailures = 2};
    cp.points[2] = {.p = cp.points[2].p,
                    .done = true,
                    .zShots = 512,
                    .zFailures = 41,
                    .xShots = 512,
                    .xFailures = 33,
                    .zEarlyStopped = true,
                    .xEarlyStopped = true};
    return cp;
}

void
expectEqualCheckpoints(const api::SweepCheckpoint &a,
                       const api::SweepCheckpoint &b)
{
    EXPECT_EQ(a.version, b.version);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_TRUE(a.points[i] == b.points[i]) << "point " << i;
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
        EXPECT_EQ(a.points[i].memory.z.earlyStopped,
                  b.points[i].memory.z.earlyStopped)
            << "point " << i;
        EXPECT_EQ(a.points[i].memory.x.shots, b.points[i].memory.x.shots)
            << "point " << i;
        EXPECT_EQ(a.points[i].memory.x.failures,
                  b.points[i].memory.x.failures)
            << "point " << i;
        EXPECT_EQ(a.points[i].memory.x.earlyStopped,
                  b.points[i].memory.x.earlyStopped)
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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
}

} // namespace

// --- atomic file ------------------------------------------------------------

TEST(AtomicFile, UncommittedWriterLeavesTargetUntouched)
{
    ScratchFile f("atomic");
    writeFile(f.path, "old contents\n");
    {
        api::AtomicFile out(f.path);
        std::fputs("half-written", out.stream());
    }
    EXPECT_EQ(readFile(f.path), "old contents\n");
    EXPECT_FALSE(fileExists(f.path + ".tmp"));

    api::AtomicFile out(f.path);
    std::fputs("new contents\n", out.stream());
    out.commit();
    EXPECT_EQ(readFile(f.path), "new contents\n");
    EXPECT_FALSE(fileExists(f.path + ".tmp"));
}

// --- serialization ----------------------------------------------------------

TEST(SweepCheckpoint, JsonRoundTripIsExact)
{
    api::SweepCheckpoint cp = sampleCheckpoint();
    api::SweepCheckpoint back = api::SweepCheckpoint::fromJson(cp.toJson());
    expectEqualCheckpoints(cp, back);
}

TEST(SweepCheckpoint, HighBitFingerprintSurvivesRoundTrip)
{
    // uint64 values above 2^53 corrupt through doubles; the format must
    // not lose them.
    api::SweepCheckpoint cp = sampleCheckpoint();
    cp.fingerprint = 0xFFFFFFFFFFFFFFFFULL;
    api::SweepCheckpoint back = api::SweepCheckpoint::fromJson(cp.toJson());
    EXPECT_EQ(back.fingerprint, 0xFFFFFFFFFFFFFFFFULL);
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

    // Only a missing file is "no checkpoint": a path under a regular
    // file cannot be opened for another reason and must not be replaced.
    ScratchFile f("not_a_dir");
    writeFile(f.path, "");
    EXPECT_THROW(api::SweepCheckpoint::loadIfExists(f.path + "/ck.json"),
                 std::runtime_error);
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
    std::size_t vpos = wrong_version.find("\"version\": 2");
    ASSERT_NE(vpos, std::string::npos);
    wrong_version.replace(vpos, 12, "\"version\": 9");
    EXPECT_THROW(api::SweepCheckpoint::fromJson(wrong_version),
                 std::runtime_error);
}

TEST(SweepCheckpoint, RejectsVersionsThatNarrowToTheCurrentOne)
{
    // 2^32 + 2 and 2^33 + 2 are unsupported versions, not version 2: the
    // check must see the parsed integer before any narrowing to int.
    std::string good = sampleCheckpoint().toJson();
    for (const char *v : {"4294967298", "8589934594"}) {
        std::string json = good;
        std::size_t vpos = json.find("\"version\": 2,");
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
                         "[2048,1,2048,2",
                         std::string("[") + big + ",1,2048,2")),
                     std::runtime_error)
            << big;
        EXPECT_THROW(api::SweepCheckpoint::fromJson(replaced(
                         "\"version\": 2", std::string("\"version\": ") + big)),
                     std::runtime_error)
            << big;
    }
}

TEST(SweepCheckpoint, RejectsInconsistentTallies)
{
    // failures > shots cannot come from a real run.
    api::SweepCheckpoint cp = sampleCheckpoint();
    cp.points[0].zFailures = cp.points[0].zShots + 1;
    EXPECT_THROW(api::SweepCheckpoint::fromJson(cp.toJson()),
                 std::runtime_error);
}

TEST(SweepCheckpoint, LoadCorruptFileMentionsPath)
{
    ScratchFile f("corrupt");
    writeFile(f.path,
              "{\"format\": \"prophunt-sweep-checkpoint\", truncated");
    try {
        api::SweepCheckpoint::load(f.path);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(f.path), std::string::npos)
            << "error should name the offending file: " << e.what();
    }
}

TEST(SweepCheckpoint, VersionOneFileIsRefusedBeforeAnyShot)
{
    // A version-1 checkpoint of fixedRequest(), as the per-chunk writer
    // of earlier builds left it after two of three points. Earlier
    // builds resumed it; this one refuses it, never migrates it, and
    // leaves it in place.
    const std::string v1 =
        "{\n"
        "  \"format\": \"prophunt-sweep-checkpoint\",\n"
        "  \"version\": 1,\n"
        "  \"fingerprint\": \"3f3cdb37025aaff4\",\n"
        "  \"seed\": \"000000000000000d\",\n"
        "  \"shots_per_point\": 2048,\n"
        "  \"chunk_shots\": 2048,\n"
        "  \"sprt\": {\"enabled\": false, \"decision_ler\": 0, "
        "\"margin\": 2, \"alpha\": 0.001, \"beta\": 0.001, "
        "\"chunk_shots\": 2048, \"min_shots\": 256},\n"
        "  \"points\": [\n"
        "    {\"p\": 0.001, \"chunks\": [[2048,1,2048,2,0,0]]},\n"
        "    {\"p\": 0.0040000000000000001, \"chunks\": "
        "[[2048,18,2048,6,0,0]]},\n"
        "    {\"p\": 0.016, \"chunks\": [null]}\n"
        "  ]\n"
        "}\n";
    ScratchFile f("v1");
    writeFile(f.path, v1);
    api::SweepRequest req = fixedRequest();
    req.checkpointPath = f.path;
    api::Engine engine;
    try {
        engine.run(req);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("version 1"), std::string::npos) << what;
        EXPECT_NE(what.find("delete it"), std::string::npos) << what;
    }
    EXPECT_EQ(engine.serviceStats().decodedShards, 0u);
    EXPECT_EQ(readFile(f.path), v1);
}

TEST(SweepCheckpoint, UnusableCheckpointPathFailsBeforeAnyShot)
{
    // A directory that does not exist, and a path under a regular file:
    // both must fail before the first shot, not after the whole sweep.
    ScratchFile regular("regular");
    writeFile(regular.path, "");
    for (const std::string &path :
         {std::string("/nonexistent/dir/ck.json"), regular.path + "/ck.json"}) {
        SCOPED_TRACE(path);
        api::SweepRequest req = fixedRequest();
        req.checkpointPath = path;
        api::Engine engine;
        EXPECT_THROW(engine.run(req), std::runtime_error);
        EXPECT_EQ(engine.serviceStats().decodedShards, 0u);
    }
}

TEST(SweepCheckpoint, ReadErrorNamesItsCause)
{
    // A directory opens for reading but every read fails with EISDIR;
    // the message must say so, and no shot may be sampled.
    ScratchFile dir("dir");
    ASSERT_TRUE(std::filesystem::create_directory(dir.path));
    api::SweepRequest req = fixedRequest();
    req.checkpointPath = dir.path;
    api::Engine engine;
    try {
        engine.run(req);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::strerror(EISDIR)), std::string::npos)
            << what;
    }
    EXPECT_EQ(engine.serviceStats().decodedShards, 0u);
}

// --- fingerprint ------------------------------------------------------------

TEST(SweepFingerprint, BindsTallyAffectingFields)
{
    api::SweepRequest base = baseRequest();
    uint64_t fp = api::sweepFingerprint(base);

    api::SweepRequest changed = base;
    changed.seed = 14;
    EXPECT_NE(api::sweepFingerprint(changed), fp);

    changed = base;
    changed.ps = {1e-3, 1.7e-2};
    EXPECT_NE(api::sweepFingerprint(changed), fp);

    changed = base;
    changed.shotsPerPoint = 4096;
    EXPECT_NE(api::sweepFingerprint(changed), fp);

    changed = base;
    changed.ler.maxFailures = 7;
    EXPECT_NE(api::sweepFingerprint(changed), fp);

    changed = base;
    changed.ler.shardShots = 128;
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
    api::SweepRequest base = baseRequest();
    uint64_t fp = api::sweepFingerprint(base);

    api::SweepRequest changed = base;
    changed.ler.threads = 7;
    changed.checkpointPath = "elsewhere.json";
    EXPECT_EQ(api::sweepFingerprint(changed), fp)
        << "thread and checkpoint knobs never change a tally";
}

TEST(SweepFingerprint, EngineRejectsMismatchedResume)
{
    ScratchFile f("fp_mismatch");
    api::SweepRequest req = baseRequest();
    api::makeSweepCheckpoint(req).saveAtomic(f.path);

    api::SweepRequest other = req;
    other.seed = 999;
    other.checkpointPath = f.path;
    api::Engine engine;
    EXPECT_THROW(engine.run(other), std::runtime_error)
        << "resuming a different request's checkpoint must be refused";
}

// --- validation -------------------------------------------------------------

TEST(SweepValidation, AcceptsGoodRequests)
{
    EXPECT_NO_THROW(api::validateSweepRequest(baseRequest()));
    api::SweepRequest edges = baseRequest();
    edges.ps = {0.0, 1.0};
    edges.pIdle = 1.0;
    EXPECT_NO_THROW(api::validateSweepRequest(edges));
}

TEST(SweepValidation, OutOfRangeNoiseIsRejectedBeforeAnyShot)
{
    // The bad value sits after a good point: it must be refused at
    // admission, not after the first point has been sampled.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {1.5, -1e-3, nan, inf}) {
        SCOPED_TRACE("bad value " + std::to_string(bad));
        api::SweepRequest req = baseRequest();
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

// --- resume -----------------------------------------------------------------

TEST(SweepResume, EveryInterruptionOffsetResumesBitIdentically)
{
    api::SweepRequest req = fixedRequest();
    api::Engine engine;
    api::SweepResult oracle = engine.run(req);

    // A completed checkpointed run gives every point's tally...
    ScratchFile full_file("resume_full");
    api::SweepRequest ck_req = req;
    ck_req.checkpointPath = full_file.path;
    expectEqualResults(engine.run(ck_req), oracle);
    api::SweepCheckpoint full = api::SweepCheckpoint::load(full_file.path);

    // ...from which we can reconstruct the checkpoint a SIGKILL would
    // have left after any number of completed points, and resume it.
    for (std::size_t cut = 0; cut <= full.points.size(); ++cut) {
        ScratchFile f("resume_cut");
        api::SweepCheckpoint partial = api::makeSweepCheckpoint(req);
        for (std::size_t p = 0; p < cut; ++p) {
            partial.points[p] = full.points[p];
        }
        partial.saveAtomic(f.path);
        api::SweepRequest resume = req;
        resume.checkpointPath = f.path;
        api::SweepResult resumed = engine.run(resume);
        SCOPED_TRACE("resumed after " + std::to_string(cut) + " points");
        expectEqualResults(resumed, oracle);
    }
}

TEST(SweepResume, CompleteCheckpointResumesWithZeroNewShots)
{
    ScratchFile f("resume_noop");
    api::SweepRequest req = fixedRequest();
    req.checkpointPath = f.path;
    api::Engine engine;
    api::SweepResult first = engine.run(req);
    api::SweepResult again = engine.run(req);
    expectEqualResults(again, first);
    EXPECT_EQ(again.telemetry.shots, 0u)
        << "a complete checkpoint leaves nothing to sample";
}

// --- golden tallies ---------------------------------------------------------
//
// Literal per-point tallies recorded from the reference implementation.
// The resume tests compare two runs of the same code; these pin what the
// sweep actually reports, so a change to how points are measured cannot
// move both sides of a comparison together.

namespace {

struct GoldenPoint
{
    std::size_t zShots, zFailures;
    bool zEarlyStopped;
    std::size_t xShots, xFailures;
    bool xEarlyStopped;
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
    }
}

} // namespace

TEST(SweepGolden, FixedBudgetWithMaxFailures)
{
    // 256-shot shards let maxFailures = 20 stop the high-p point early.
    api::SweepRequest req = baseRequest();
    req.ler.shardShots = 256;
    req.ler.maxFailures = 20;
    api::Engine engine;
    expectGolden(engine.run(req), {{2048, 1, false, 2048, 2, false},
                                   {512, 41, true, 512, 33, true}});
}

TEST(SweepGolden, FixedBudgetThreePoints)
{
    api::Engine engine;
    expectGolden(engine.run(fixedRequest()),
                 {{2048, 1, false, 2048, 2, false},
                  {2048, 18, false, 2048, 6, false},
                  {512, 41, true, 512, 33, true}});
}

TEST(SweepGolden, ZeroShotPointIsEmpty)
{
    api::SweepRequest req = baseRequest();
    req.ps = {1e-3};
    req.shotsPerPoint = 0;
    api::Engine engine;
    expectGolden(engine.run(req), {{0, 0, false, 0, 0, false}});
    EXPECT_EQ(engine.serviceStats().decodedShards, 0u);
}

TEST(SweepGolden, FingerprintAndCheckpointJson)
{
    EXPECT_EQ(api::sweepFingerprint(fixedRequest()), 0xb134b5cefbbc76d7ULL);
    EXPECT_EQ(sampleCheckpoint().toJson(),
              "{\n"
              "  \"format\": \"prophunt-sweep-checkpoint\",\n"
              "  \"version\": 2,\n"
              "  \"fingerprint\": \"b134b5cefbbc76d7\",\n"
              "  \"points\": [\n"
              "    {\"p\": 0.001, \"tally\": [2048,1,2048,2,0,0]},\n"
              "    {\"p\": 0.0040000000000000001, \"tally\": null},\n"
              "    {\"p\": 0.016, \"tally\": [512,41,512,33,1,1]}\n"
              "  ]\n"
              "}\n");
}

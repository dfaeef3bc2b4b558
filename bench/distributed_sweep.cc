/**
 * @file
 * Distributed-sweep contract bench: checkpoint/resume and shard-merge
 * must be bit-identical to an uninterrupted serial sweep.
 *
 * Three phases over a reduced fig12-style d=3 surface SPRT sweep:
 *
 *   1. kill/resume — fork a worker that runs the checkpointed sweep
 *      (checkpoint every chunk), SIGKILL it after a growing delay, and
 *      fork the next worker to resume from the surviving checkpoint;
 *      repeat until a worker completes. Every kill point is a resume
 *      point, so one run exercises many interruption offsets.
 *   2. serial oracle — the same request, no checkpoint, one process.
 *      The resumed result and the finalized checkpoint must match it
 *      point for point: shots, failures, and SPRT decisions.
 *   3. shard matrix — for k in {1,2,3} and ler.threads in {1,2}, run k
 *      disjoint shard workers to per-shard checkpoints, merge them in
 *      rotated (non-canonical) order, finalize, and compare to the
 *      oracle. A late-arriving shard must never flip a decision.
 *
 * All forks happen before the parent constructs any Engine (fork and
 * worker-pool threads do not mix); children build their own Engine and
 * leave via _Exit. Writes $PROPHUNT_BENCH_OUT (default
 * BENCH_distributed_sweep.json); exits nonzero on any violation, so CI
 * and the distributed_sweep_smoke ctest can gate on it.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/sweep_checkpoint.h"
#include "bench_common.h"

#if defined(__unix__) || defined(__APPLE__)
#define PROPHUNT_HAVE_FORK 1
#include <csignal>
#include <cstdlib>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace prophunt;

namespace {

/** The reduced fig12-style sweep every phase runs. */
api::SweepRequest
baseRequest()
{
    code::SurfaceCode s(3);
    api::SweepRequest req(circuit::nzSchedule(s));
    req.rounds = 3;
    req.ps = {1e-3, 2e-3, 4e-3, 8e-3};
    req.decoder = "union_find";
    req.shotsPerPoint = phbench::shots();
    req.seed = 13;
    req.ler = phbench::lerOptions();
    req.sprt.enabled = true;
    req.sprt.decisionLer = 0.02;
    req.sprt.chunkShots = 512;
    req.sprt.minShots = 256;
    return req;
}

/** Point-for-point bit-identity: shots, failures, decisions. */
bool
identical(const api::SweepResult &a, const api::SweepResult &b,
          const char *label)
{
    if (a.points.size() != b.points.size()) {
        std::fprintf(stderr, "%s: point count %zu != %zu\n", label,
                     a.points.size(), b.points.size());
        return false;
    }
    bool ok = true;
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const api::SweepPointResult &x = a.points[i];
        const api::SweepPointResult &y = b.points[i];
        if (x.memory.z.shots != y.memory.z.shots ||
            x.memory.z.failures != y.memory.z.failures ||
            x.memory.x.shots != y.memory.x.shots ||
            x.memory.x.failures != y.memory.x.failures ||
            x.decision != y.decision) {
            std::fprintf(stderr,
                         "%s: point %zu (p=%g) mismatch: "
                         "z=%zu/%zu vs %zu/%zu, x=%zu/%zu vs %zu/%zu, "
                         "decision %s vs %s\n",
                         label, i, x.p, x.memory.z.failures,
                         x.memory.z.shots, y.memory.z.failures,
                         y.memory.z.shots, x.memory.x.failures,
                         x.memory.x.shots, y.memory.x.failures,
                         y.memory.x.shots, api::toString(x.decision),
                         api::toString(y.decision));
            ok = false;
        }
    }
    return ok;
}

struct KillResumeOutcome
{
    bool supported = false;
    bool completed = false;
    bool interrupted = false; ///< at least one kill left partial work
    std::size_t attempts = 0;
    std::size_t kills = 0;
};

#ifdef PROPHUNT_HAVE_FORK
/**
 * Fork workers running the checkpointed sweep, SIGKILL each after a
 * growing delay until one finishes naturally. Must run before the
 * parent creates any threads.
 */
/** Fork one worker running @p req; kill it after @p delay_us (0 = let
 * it finish). Returns 0 = finished, 1 = killed, -1 = failure. */
int
runWorker(const api::SweepRequest &req, useconds_t delay_us)
{
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        return -1;
    }
    if (pid == 0) {
        // Worker: own engine, resume from whatever checkpoint the
        // previous (killed) worker left, _Exit without flushing the
        // parent's inherited stdio buffers.
        try {
            api::Engine engine;
            (void)engine.run(req);
            std::_Exit(0);
        } catch (...) {
            std::_Exit(4);
        }
    }
    if (delay_us > 0) {
        usleep(delay_us);
        kill(pid, SIGKILL);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        return 0;
    }
    if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
        return 1;
    }
    std::fprintf(stderr, "kill/resume: worker failed (status %d)\n",
                 status);
    return -1;
}

/**
 * Fork workers running the checkpointed sweep, SIGKILL each after an
 * adaptive delay until at least one kill lands mid-run (a partial
 * checkpoint survives) and a later worker resumes it to completion.
 * The delay grows after an early kill and shrinks when a worker
 * outruns it, homing in on the compute window. Must run before the
 * parent creates any threads.
 */
KillResumeOutcome
killResumeLoop(const api::SweepRequest &req)
{
    KillResumeOutcome out;
    out.supported = true;
    useconds_t delay_us = 4000;
    const std::size_t max_attempts = 80;
    while (out.attempts < max_attempts) {
        if (out.completed && out.interrupted) {
            return out;
        }
        if (out.completed) {
            // Finished before any kill interrupted it: discard and
            // retry faster until a kill lands inside the run.
            std::remove(req.checkpointPath.c_str());
            out.completed = false;
            delay_us = delay_us > 2000 ? delay_us / 2 : 1000;
        }
        ++out.attempts;
        int rc = runWorker(req, delay_us);
        if (rc < 0) {
            return out;
        }
        if (rc == 0) {
            out.completed = true;
            continue;
        }
        ++out.kills;
        auto cp = api::SweepCheckpoint::loadIfExists(req.checkpointPath);
        if (cp && !api::finalizeSweep(*cp).complete) {
            std::size_t done = 0;
            for (const auto &p : cp->points) {
                for (const auto &c : p.chunks) {
                    done += c.done ? 1 : 0;
                }
            }
            out.interrupted = out.interrupted || done > 0;
        }
        delay_us += delay_us / 2;
    }
    // Attempts exhausted: let the last resume run to completion so the
    // bit-identity phase can still judge whatever was exercised.
    if (!out.completed) {
        out.completed = runWorker(req, 0) == 0;
    }
    return out;
}
#endif

} // namespace

int
main()
{
    api::SweepRequest req = baseRequest();
    const std::string ck_path = "distributed_sweep_ck.json";
    std::remove(ck_path.c_str());
    std::remove((ck_path + ".tmp").c_str());

    std::printf("=== Distributed sweep: kill/resume + shard merge vs "
                "serial oracle (d=3, %zu shots/point) ===\n",
                req.shotsPerPoint);

    // Phase 1 runs first: fork before this process owns any threads.
    KillResumeOutcome kr;
#ifdef PROPHUNT_HAVE_FORK
    {
        api::SweepRequest worker = req;
        worker.checkpointPath = ck_path;
        worker.checkpointEveryChunks = 1;
        kr = killResumeLoop(worker);
        if (kr.supported && !kr.completed) {
            std::fprintf(stderr, "kill/resume: no worker completed in "
                                 "%zu attempts\n",
                         kr.attempts);
            return 1;
        }
    }
#else
    std::printf("kill/resume: fork() unavailable on this platform, "
                "phase skipped\n");
#endif

    // Phase 2: serial oracle (threads now allowed).
    api::Engine engine;
    api::SweepResult oracle = engine.run(req);

    bool resume_identical = true;
    if (kr.completed) {
        // The finalized checkpoint of the killed-and-resumed workers...
        api::SweepFinalize fin =
            api::finalizeSweep(api::SweepCheckpoint::load(ck_path));
        resume_identical =
            fin.complete &&
            identical(fin.result, oracle, "kill/resume checkpoint");
        // ...and a fresh resume over the complete checkpoint (a no-op
        // run returning the full canonical result) must both match.
        api::SweepRequest replay = req;
        replay.checkpointPath = ck_path;
        api::SweepResult resumed = engine.run(replay);
        resume_identical =
            resume_identical &&
            identical(resumed, oracle, "kill/resume replay") &&
            resumed.telemetry.shots == 0;
        std::printf("kill/resume: %zu kills over %zu attempts, "
                    "mid-run interruption %s, bit-identical: %s\n",
                    kr.kills, kr.attempts,
                    kr.interrupted ? "observed" : "NOT observed",
                    resume_identical ? "yes" : "NO");
    }

    // Phase 3: shard matrix. k workers over disjoint (point, chunk)
    // slices, merged in rotated order, finalized, compared.
    struct MatrixCell
    {
        std::size_t shards;
        std::size_t threads;
        bool identicalToOracle;
    };
    std::vector<MatrixCell> matrix;
    bool shards_identical = true;
    for (std::size_t k = 1; k <= 3; ++k) {
        for (std::size_t threads = 1; threads <= 2; ++threads) {
            std::vector<api::SweepCheckpoint> parts;
            for (std::size_t i = 0; i < k; ++i) {
                api::SweepRequest shard = req;
                shard.ler.threads = threads;
                shard.shard.index = i;
                shard.shard.count = k;
                char buf[64];
                std::snprintf(buf, sizeof buf,
                              "distributed_sweep_s%zu_of_%zu.json", i, k);
                std::remove(buf);
                shard.checkpointPath = buf;
                (void)engine.run(shard);
                parts.push_back(api::SweepCheckpoint::load(buf));
                std::remove(buf);
            }
            std::rotate(parts.begin(), parts.begin() + (k > 1 ? 1 : 0),
                        parts.end());
            api::SweepFinalize fin =
                api::finalizeSweep(api::mergeSweepCheckpoints(parts));
            char label[64];
            std::snprintf(label, sizeof label, "merge k=%zu threads=%zu",
                          k, threads);
            bool ok =
                fin.complete && identical(fin.result, oracle, label);
            matrix.push_back({k, threads, ok});
            shards_identical = shards_identical && ok;
            std::printf("%s: %s\n", label, ok ? "identical" : "MISMATCH");
        }
    }

    std::remove(ck_path.c_str());

    std::string path = phbench::benchOutPath("BENCH_distributed_sweep.json");
    if (FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f,
                     "{\n  \"bench\": \"distributed_sweep\",\n"
                     "  \"shots_per_point\": %zu,\n"
                     "  \"kill_resume_supported\": %s,\n"
                     "  \"kill_resume_attempts\": %zu,\n"
                     "  \"kill_resume_kills\": %zu,\n"
                     "  \"kill_resume_interrupted_midrun\": %s,\n"
                     "  \"kill_resume_identical\": %s,\n"
                     "  \"shard_merge_identical\": %s,\n"
                     "  \"matrix\": [",
                     req.shotsPerPoint, kr.supported ? "true" : "false",
                     kr.attempts, kr.kills,
                     kr.interrupted ? "true" : "false",
                     resume_identical ? "true" : "false",
                     shards_identical ? "true" : "false");
        for (std::size_t i = 0; i < matrix.size(); ++i) {
            std::fprintf(f,
                         "%s\n    {\"shards\": %zu, \"threads\": %zu, "
                         "\"identical\": %s}",
                         i == 0 ? "" : ",", matrix[i].shards,
                         matrix[i].threads,
                         matrix[i].identicalToOracle ? "true" : "false");
        }
        std::fprintf(f, "\n  ],\n  \"points\": [");
        for (std::size_t i = 0; i < oracle.points.size(); ++i) {
            const api::SweepPointResult &pt = oracle.points[i];
            std::fprintf(f,
                         "%s\n    {\"p\": %g, \"z_shots\": %zu, "
                         "\"z_failures\": %zu, \"x_shots\": %zu, "
                         "\"x_failures\": %zu, \"decision\": \"%s\"}",
                         i == 0 ? "" : ",", pt.p, pt.memory.z.shots,
                         pt.memory.z.failures, pt.memory.x.shots,
                         pt.memory.x.failures,
                         api::toString(pt.decision));
        }
        std::fprintf(f, "\n  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
    }

    bool midrun_ok = !kr.supported || kr.interrupted;
    if (!resume_identical || !shards_identical || !midrun_ok) {
        std::fprintf(stderr,
                     "distributed_sweep: contract violation "
                     "(resume_identical=%d shard_merge_identical=%d "
                     "midrun_interruption=%d)\n",
                     resume_identical, shards_identical, midrun_ok);
        return 1;
    }
    return 0;
}

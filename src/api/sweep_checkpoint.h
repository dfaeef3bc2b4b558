/**
 * @file
 * Checkpointable sweep execution state.
 *
 * SweepCheckpoint is the one sweep state. It carries the request's grid
 * (shotsPerPoint, the clamped chunkShots and the SPRT options) and one
 * tally per (point, chunk) cell: SPRT-adaptive points split their shot
 * budget into chunkShots-sized chunks, and a fixed-budget point is a
 * single chunk of shotsPerPoint shots. Each cell's measurement is
 * independent of every other cell — its sampling seed comes from an
 * O(1)-random-access SplitMix64 stream position, and the decode service
 * guarantees the tally is thread-count invariant — so the cells missing
 * from a checkpoint can be computed later and the result is
 * bit-identical to an uninterrupted run.
 *
 * The checkpoint persists as versioned JSON (written atomically: temp
 * file + rename, so a SIGKILL at any instant leaves either the old or
 * the new checkpoint, never a torn one). Engine::run(SweepRequest)
 * resumes from it bit-identically. One prefix rule, evalSweepPrefix,
 * serves both modes and every caller: it walks a point's contiguous
 * done-chunk prefix in canonical order and, for SPRT, stops at the first
 * Wald-bound crossing — it never reads a later chunk, so completed cells
 * past a decision can never flip it.
 */
#ifndef PROPHUNT_API_SWEEP_CHECKPOINT_H
#define PROPHUNT_API_SWEEP_CHECKPOINT_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/requests.h"

namespace prophunt::api {

/**
 * Master sampling seed of chunk @p chunk. SPRT chunks draw from the
 * request's dedicated SplitMix64 chunk stream (identical to the stream
 * the pre-checkpoint serial loop consumed sequentially); fixed-budget
 * points sample with the request seed itself, exactly as the equivalent
 * LerRequest would.
 */
uint64_t sweepChunkSeed(const SweepRequest &req, std::size_t chunk);

/** Bit-exact completed tally of one (point, chunk) cell. */
struct SweepChunkTally
{
    bool done = false;
    /** Accounted shots/failures per basis (shots can undershoot the
     * requested chunk size when ler.maxFailures stops a chunk early —
     * that truncation is deterministic and part of the tally). */
    uint64_t zShots = 0;
    uint64_t zFailures = 0;
    uint64_t xShots = 0;
    uint64_t xFailures = 0;
    /** Per-basis maxFailures early-stop flags (fixed-budget points
     * surface them in the result, mirroring LerRequest). */
    bool zEarlyStopped = false;
    bool xEarlyStopped = false;

    bool
    operator==(const SweepChunkTally &o) const
    {
        return done == o.done && zShots == o.zShots &&
               zFailures == o.zFailures && xShots == o.xShots &&
               xFailures == o.xFailures &&
               zEarlyStopped == o.zEarlyStopped &&
               xEarlyStopped == o.xEarlyStopped;
    }
};

/** Checkpointed state of one sweep point. */
struct SweepPointCheckpoint
{
    double p = 0.0;
    std::vector<SweepChunkTally> chunks; ///< Fixed grid size per point.
};

/**
 * The serializable sweep execution state: request fingerprint + grid
 * parameters + every completed cell tally. Version 1. The grid is pure
 * arithmetic over the stored budgets, so two processes holding the same
 * checkpoint always agree on chunk count, sizes and seeds.
 */
struct SweepCheckpoint
{
    static constexpr int kVersion = 1;
    static constexpr const char *kFormat = "prophunt-sweep-checkpoint";

    int version = kVersion;
    /** sweepFingerprint(req) of the request this state belongs to. */
    uint64_t fingerprint = 0;
    /** Grid + decision parameters, so finalizeSweep needs no request. */
    std::size_t shotsPerPoint = 0;
    /** Effective chunk size: sprt.chunkShots clamped to >= 1 (SPRT), or
     * shotsPerPoint itself (fixed budget = one chunk per point). */
    std::size_t chunkShots = 0;
    uint64_t seed = 1;
    SprtOptions sprt;
    std::vector<SweepPointCheckpoint> points;

    /** Chunks per point (0 when shotsPerPoint == 0). */
    std::size_t
    chunksPerPoint() const
    {
        if (shotsPerPoint == 0 || chunkShots == 0) {
            return 0;
        }
        return (shotsPerPoint + chunkShots - 1) / chunkShots;
    }

    /** Requested shots of chunk @p c (the last chunk may be short). */
    std::size_t
    chunkSize(std::size_t c) const
    {
        return std::min(chunkShots, shotsPerPoint - c * chunkShots);
    }

    /** Cumulative requested shots through chunk @p c inclusive. */
    std::size_t
    chunkEnd(std::size_t c) const
    {
        return c * chunkShots + chunkSize(c);
    }

    std::string toJson() const;
    /** Parse; throws std::runtime_error with offset + cause on corrupt,
     * truncated, wrong-format, or wrong-version input. */
    static SweepCheckpoint fromJson(const std::string &json);

    /** Write via temp file + rename (+fsync): readers and crash victims
     * see either the previous complete file or this one. */
    void saveAtomic(const std::string &path) const;
    /** Load @p path; throws std::runtime_error if missing or corrupt. */
    static SweepCheckpoint load(const std::string &path);
    /** As load(), but a missing file is nullopt (corrupt still throws:
     * silently restarting a multi-hour sweep is worse than an error). */
    static std::optional<SweepCheckpoint> loadIfExists(
        const std::string &path);
};

/**
 * Fingerprint of every request field that affects cell tallies or the
 * decision rule: schedule hash, rounds, ps, pIdle, decoder spec,
 * budgets, seeds, SPRT options, flag weight, and the ler fields that
 * change the sample stream (shardShots) or accounting (maxFailures).
 * Thread counts, cancellation, and checkpoint knobs are excluded — they
 * never change a tally.
 */
uint64_t sweepFingerprint(const SweepRequest &req);

/** A fresh all-cells-pending checkpoint laid out for @p req: the one
 * place that derives chunkShots from the request. */
SweepCheckpoint makeSweepCheckpoint(const SweepRequest &req);

/**
 * Canonical-order evaluation of one point's contiguous done prefix —
 * the single decision procedure shared by execution, resume, and
 * finalization (which is what makes them bit-identical). A fixed-budget
 * point is one chunk whose tally, early-stop flags included, is the
 * point's; an SPRT point runs the test after each chunk and stops
 * consuming at the first decision. A prefix that covers the whole budget
 * undecided falls back to SprtTest::fixedDecision on the combined LER.
 */
struct SweepPrefix
{
    /** Length of the contiguous done-chunk prefix. */
    std::size_t chunksDone = 0;
    /** Chunks the canonical evaluation consumed (SPRT stops consuming
     * at the first decision; later chunks are never read). */
    std::size_t chunksConsumed = 0;
    /** Accumulated tallies over the consumed chunks (packed stats zero). */
    decoder::MemoryLer memory;
    SprtDecision decision = SprtDecision::None;
    /** Decision reached before the full budget (sets earlyStopped). */
    bool decidedEarly = false;
    /** Point fully resolved: decided, or every chunk consumed. */
    bool complete = false;
};

SweepPrefix evalSweepPrefix(const SweepCheckpoint &cp, std::size_t point);

/** The finalized result of one point (memory tallies + decision;
 * telemetry.shots = accounted shots, timings zero). */
SweepPointResult finalizePoint(const SweepCheckpoint &cp, std::size_t point);

/** Finalization of a whole checkpoint. */
struct SweepFinalize
{
    SweepResult result;
    /** Every point decided or fully sampled. */
    bool complete = false;
    std::size_t pointsComplete = 0;
};

SweepFinalize finalizeSweep(const SweepCheckpoint &cp);

/**
 * Request admission check, run before any artifact is built or shot
 * sampled. Throws std::invalid_argument with an actionable message for a
 * point p or a pIdle that is not a finite probability in [0, 1], and for
 * sprt.enabled with unusable SPRT options (the default decisionLer == 0
 * in particular); sprt.chunkShots == 0 is legal and clamps to 1.
 */
void validateSweepRequest(const SweepRequest &req);

} // namespace prophunt::api

#endif // PROPHUNT_API_SWEEP_CHECKPOINT_H

/**
 * @file
 * Checkpointable sweep execution state.
 *
 * SweepCheckpoint is the one sweep state: one tally per sweep point. A
 * point is measured once, exactly as the equivalent LerRequest at the
 * sweep's seed and shot budget, and the decode service guarantees its
 * tally is thread-count invariant — so the points missing from a
 * checkpoint can be measured later and the result is bit-identical to
 * an uninterrupted run.
 *
 * The checkpoint persists as versioned JSON, written through AtomicFile
 * (temp file + fsync + rename, so a SIGKILL at any instant leaves either
 * the old or the new checkpoint, never a torn one). Engine::run
 * (SweepRequest) writes it before the first shot and after every
 * measured point, and resumes from it bit-identically.
 */
#ifndef PROPHUNT_API_SWEEP_CHECKPOINT_H
#define PROPHUNT_API_SWEEP_CHECKPOINT_H

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "api/requests.h"

namespace prophunt::api {

/**
 * A file replaced atomically: the constructor opens PATH.tmp, so an
 * unwritable location fails before any work; commit(), called once,
 * flushes, fsyncs and renames it over PATH, so readers and crash victims see either the
 * previous complete file or the new one. An uncommitted writer removes
 * its temp file and leaves PATH untouched. Throws std::runtime_error.
 */
class AtomicFile
{
  public:
    explicit AtomicFile(std::string path);
    ~AtomicFile();
    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    /** The open temp file; write the contents here before commit(). */
    FILE *
    stream() const
    {
        return file_;
    }
    void commit();

  private:
    std::string path_;
    std::string tmp_;
    FILE *file_ = nullptr;
};

/**
 * Checkpointed state of one sweep point: its p and, once measured
 * (done), its bit-exact tally. Shots can undershoot the budget when
 * ler.maxFailures stopped a basis early; that truncation is
 * deterministic and part of the tally, with its per-basis flag.
 */
struct SweepPointCheckpoint
{
    double p = 0.0;
    bool done = false;
    uint64_t zShots = 0;
    uint64_t zFailures = 0;
    uint64_t xShots = 0;
    uint64_t xFailures = 0;
    bool zEarlyStopped = false;
    bool xEarlyStopped = false;

    bool operator==(const SweepPointCheckpoint &) const = default;

    /** The tally as a MemoryLer (packed stats zero). */
    decoder::MemoryLer memory() const;
};

/**
 * The serializable sweep execution state: request fingerprint + one
 * tally per point. Version 2; a version-1 file (the former per-chunk
 * layout) is refused, never migrated.
 */
struct SweepCheckpoint
{
    static constexpr int kVersion = 2;
    static constexpr const char *kFormat = "prophunt-sweep-checkpoint";

    int version = kVersion;
    /** sweepFingerprint(req) of the request this state belongs to. */
    uint64_t fingerprint = 0;
    std::vector<SweepPointCheckpoint> points;

    std::string toJson() const;
    /** Parse; throws std::runtime_error with offset + cause on corrupt,
     * truncated, wrong-format, or wrong-version input. */
    static SweepCheckpoint fromJson(const std::string &json);

    /** Write through AtomicFile. */
    void saveAtomic(const std::string &path) const;
    /** Load @p path; throws std::runtime_error if missing or corrupt. */
    static SweepCheckpoint load(const std::string &path);
    /** As load(), but a missing file (ENOENT) is nullopt. Any other
     * open error and a corrupt file throw: silently restarting a
     * multi-hour sweep over a file it cannot read is worse than an
     * error. */
    static std::optional<SweepCheckpoint> loadIfExists(
        const std::string &path);
};

/**
 * Fingerprint of every request field that affects a point's tally:
 * schedule hash, rounds, ps, pIdle, decoder spec, shot budget, seed,
 * flag weight, and the ler fields that change the sample stream
 * (shardShots) or accounting (maxFailures). Thread counts and the
 * checkpoint path are excluded — they never change a tally.
 */
uint64_t sweepFingerprint(const SweepRequest &req);

/** A fresh all-points-pending checkpoint laid out for @p req. */
SweepCheckpoint makeSweepCheckpoint(const SweepRequest &req);

/**
 * Request admission check, run before any artifact is built or shot
 * sampled. Throws std::invalid_argument with an actionable message for a
 * point p or a pIdle that is not a finite probability in [0, 1].
 */
void validateSweepRequest(const SweepRequest &req);

} // namespace prophunt::api

#endif // PROPHUNT_API_SWEEP_CHECKPOINT_H

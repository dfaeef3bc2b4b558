/**
 * @file
 * Typed request/response structs of the prophunt::api engine.
 *
 * One struct per workload kind, each served by one blocking
 * Engine::run() call. A request is plain data: it runs to completion
 * (or to its ler.maxFailures stop) and has no handle to interrupt it.
 * Every result carries Telemetry (build/decode timings, cache hits,
 * shots) so callers — and regression benches — can observe where the
 * time went without instrumenting the engine.
 */
#ifndef PROPHUNT_API_REQUESTS_H
#define PROPHUNT_API_REQUESTS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/schedule.h"
#include "decoder/logical_error.h"
#include "decoder/registry.h"
#include "prophunt/optimizer.h"
#include "sim/noise_model.h"

namespace prophunt::api {

/** Per-request timing and cache telemetry. */
struct Telemetry
{
    /** Microseconds spent building artifacts (circuits, DEMs, decoder
     * prototypes) on cache misses. */
    uint64_t buildUs = 0;
    /** Microseconds spent sampling + decoding. */
    uint64_t decodeUs = 0;
    /** Artifact-cache hits / misses while serving the request. */
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;
    /** Total shots actually sampled (both bases). */
    std::size_t shots = 0;
    /** Always 0: every accounted shot is sampled and decoded. Kept only
     * so existing readers of the field still build. */
    std::size_t reusedShots = 0;
    /** Decode-service jobs of this request admitted while another
     * request with the same decode key was already in flight. */
    std::size_t coalescedRequests = 0;
    /** Shards a pool thread decoded right after serving a different
     * request stream (decode-service work stealing). */
    std::size_t workSteals = 0;
    /** Peak pending shard-queue depth observed at admission. */
    std::size_t queueDepth = 0;
    /** Packed-decode path counters: native packed vs per-shot adapter
     * shots, the lane engine's occupancy, and the batched OSD
     * post-pass's osdShots/osdUs (decoder/decoder.h). */
    decoder::PackedDecodeStats packed;

    Telemetry &
    operator+=(const Telemetry &o)
    {
        buildUs += o.buildUs;
        decodeUs += o.decodeUs;
        cacheHits += o.cacheHits;
        cacheMisses += o.cacheMisses;
        shots += o.shots;
        coalescedRequests += o.coalescedRequests;
        workSteals += o.workSteals;
        queueDepth = queueDepth > o.queueDepth ? queueDepth : o.queueDepth;
        packed += o.packed;
        return *this;
    }
};

/** One logical-error-rate measurement of a schedule. */
struct LerRequest
{
    circuit::SmSchedule schedule;
    /** Memory-experiment rounds (typically the code distance). */
    std::size_t rounds = 1;
    sim::NoiseModel noise;
    decoder::DecoderSpec decoder;
    /** Shots per memory basis. */
    std::size_t shots = 20000;
    uint64_t seed = 1;
    decoder::LerOptions ler;
    /**
     * Passed to circuit::buildMemoryCircuit as its flag weight: 0 = plain
     * memory circuit; otherwise a flag qubit on every check of at least
     * this weight — the Section 8 flag-fault-tolerance extension study.
     */
    std::size_t flagWeight = 0;

    explicit LerRequest(circuit::SmSchedule s) : schedule(std::move(s)) {}
};

struct LerResult
{
    decoder::MemoryLer memory;
    Telemetry telemetry;

    /** Combined P(any logical error). */
    double
    ler() const
    {
        return memory.combined();
    }
};

/**
 * A physical-error-rate sweep of one schedule.
 *
 * Each point is measured once, exactly as the LerRequest with the same
 * schedule, noise, decoder, shotsPerPoint, seed, ler options and flag
 * weight would be; ler.maxFailures is its only early stop. The engine
 * builds each point's DEM and decoder once per basis (cached across
 * requests). With checkpointPath set, every measured point persists
 * atomically (api/sweep_checkpoint.h) and a rerun of the same request
 * resumes bit-identically to an uninterrupted run.
 */
struct SweepRequest
{
    circuit::SmSchedule schedule;
    std::size_t rounds = 1;
    /** Gate error rates to sweep. Each, and pIdle, must be a finite
     * probability in [0, 1]; run() rejects any other value with
     * std::invalid_argument before the first shot is sampled. */
    std::vector<double> ps;
    /** Per-CNOT-layer idle error strength applied at every point. */
    double pIdle = 0.0;
    decoder::DecoderSpec decoder;
    /** Shot budget per basis per point (ler.maxFailures may stop
     * earlier). */
    std::size_t shotsPerPoint = 20000;
    uint64_t seed = 1;
    decoder::LerOptions ler;
    /** As LerRequest::flagWeight: buildMemoryCircuit's flag weight. */
    std::size_t flagWeight = 0;
    /** Checkpoint/resume file; empty (the default) disables both. It is
     * written before the first shot (so an unusable path fails first)
     * and after every measured point. A mismatched existing checkpoint
     * (different request fingerprint) is an error, never silently
     * overwritten. */
    std::string checkpointPath;

    explicit SweepRequest(circuit::SmSchedule s) : schedule(std::move(s)) {}
};

struct SweepPointResult
{
    double p = 0.0;
    decoder::MemoryLer memory;
    Telemetry telemetry;

    double
    ler() const
    {
        return memory.combined();
    }
};

struct SweepResult
{
    std::vector<SweepPointResult> points;
    Telemetry telemetry;

    /** Total shots sampled across all points and bases. */
    std::size_t
    totalShots() const
    {
        return telemetry.shots;
    }
};

/** A PropHunt optimization run. */
struct OptimizeRequest
{
    circuit::SmSchedule start;
    std::size_t rounds = 1;
    /** Optimizer knobs. */
    core::PropHuntOptions options;

    explicit OptimizeRequest(circuit::SmSchedule s) : start(std::move(s)) {}
};

struct OptimizeResult
{
    core::OptimizeResult outcome;
    Telemetry telemetry;

    const circuit::SmSchedule &
    finalSchedule() const
    {
        return outcome.finalSchedule();
    }
};

} // namespace prophunt::api

#endif // PROPHUNT_API_REQUESTS_H

/**
 * @file
 * Saturation benchmark of api::DecodeService: N concurrent clients
 * submitting LER jobs against one persistent service.
 *
 * Per code (lp39 fast, rqt54 the gated reference) the run measures:
 *
 *  - "calib": the serial LER oracle (oracles::measureDemLer, one thread)
 *    on the same shot budget — the machine-speed reference all
 *    committed-baseline gates are guarded by;
 *  - a single-client phase: one thread draining the request list
 *    through the service, whose shots/sec must sustain the committed single-request rate on rqt54
 *    within 5% slack on hardware at least as fast as the baseline's;
 *  - client phases N in {1, 2, 4}: the same request list split
 *    round-robin over N submitting threads (each request decodes on
 *    its caller, so clients are the concurrency), reporting
 *    requests/sec and shots/sec. While the machine has a core per
 *    client, shots/sec at N > 1 may never fall below 0.95x the
 *    single-client rate — on multi-core hardware it should scale up;
 *    an oversubscribed box legitimately pays some contention and is
 *    not gated.
 *
 * Only the rqt54 rows are gated. The lp39 rows are informational: at
 * CI budgets an lp39 phase lasts tens of milliseconds, and the same
 * binary has read 4-client scaling of 1.11x, 2.89x and 3.50x on
 * back-to-back runs on one 4-core machine, so they cannot show a
 * regression.
 *
 * Every phase runs the identical seed set, so the per-request failure
 * counts must be bit-identical across all phases and client counts —
 * the run FAILS on any mismatch (the service determinism contract,
 * observed under real saturation rather than a test harness).
 *
 * Every request clones the decoder prototype for itself; clients share
 * only the service's worker pool and its coalescing telemetry.
 *
 * Writes $PROPHUNT_BENCH_OUT (default BENCH_decode_service.json);
 * the committed reference lives at $PROPHUNT_DECODE_SERVICE_BASELINE
 * (default ../bench/results/decode_service_baseline.json).
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/decode_service.h"
#include "bench_common.h"
#include "decoder/logical_error.h"
#include "support/sampling.h"

using namespace prophunt;

namespace {

struct Config
{
    const char *name;
    code::CssCode (*build)();
    std::size_t rounds;
    double p;
    std::size_t divisor; ///< shots per request = PROPHUNT_SHOTS / divisor.
};

/** One decode problem: a DEM plus its decoder prototype. */
struct Model
{
    circuit::SmCircuit circuit;
    sim::Dem dem;
    std::unique_ptr<decoder::Decoder> prototype;
};

struct Phase
{
    std::size_t clients = 0;
    double secs = 0;
    double requestsPerSec = 0;
    double shotsPerSec = 0;
    std::vector<std::size_t> failures; ///< Per request index.
};

struct Row
{
    std::string name;
    double p = 0;
    std::size_t shotsPerRequest = 0;
    std::size_t requests = 0;
    std::size_t shardShots = 0;
    double calibRate = 0;
    std::vector<Phase> phases;
    bool identicalAcrossPhases = true;
    api::DecodeServiceStats stats;
};

const std::size_t kClientCounts[] = {1, 2, 4};
constexpr std::size_t kRequestsPerPhase = 8;

/** Drain the request list through @p service with @p clients threads. */
Phase
runPhase(api::DecodeService &service, const std::shared_ptr<Model> &model,
         const std::string &key, std::size_t clients, std::size_t shots,
         std::size_t shard_shots)
{
    Phase phase;
    phase.clients = clients;
    phase.failures.assign(kRequestsPerPhase, 0);
    double t0 = phbench::now();
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (std::size_t r = c; r < kRequestsPerPhase; r += clients) {
                api::DecodeJob job;
                job.key = key;
                job.dem = &model->dem;
                job.prototype = model->prototype.get();
                job.shots = shots;
                job.seed = 300 + r; // identical seed set in every phase
                job.ler.threads = 1; // clients are the concurrency
                job.ler.shardShots = shard_shots;
                phase.failures[r] =
                    service.measure(job).result.failures;
            }
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    phase.secs = phbench::now() - t0;
    phase.requestsPerSec = kRequestsPerPhase / phase.secs;
    phase.shotsPerSec = kRequestsPerPhase * shots / phase.secs;
    return phase;
}

Row
runConfig(const Config &cfg)
{
    Row row;
    row.name = cfg.name;
    row.p = cfg.p;
    std::size_t base = phbench::config().shots;
    row.shotsPerRequest = std::max<std::size_t>(100, base / cfg.divisor);
    row.requests = kRequestsPerPhase;
    // ~8 shards per request: enough queue churn to exercise the shard
    // queues without shard setup dominating.
    row.shardShots = std::max<std::size_t>(32, row.shotsPerRequest / 8);

    auto model = std::make_shared<Model>();
    auto cp = std::make_shared<const code::CssCode>(cfg.build());
    model->circuit = circuit::buildMemoryCircuit(
        circuit::colorationSchedule(cp), cfg.rounds,
        circuit::MemoryBasis::Z);
    model->dem =
        sim::buildDem(model->circuit, sim::NoiseModel::uniform(cfg.p));
    model->prototype = decoder::Registry::make(
        phbench::decoderFor(*cp), model->dem, model->circuit);

    std::size_t reps =
        std::max<std::size_t>(1, phbench::config().benchReps);

    // --- calibration: the serial oracle, best of reps.
    decoder::LerOptions serial;
    serial.shardShots = row.shardShots;
    double calibSecs = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        auto dec = model->prototype->clone();
        double t0 = phbench::now();
        oracles::measureDemLer(model->dem, *dec, row.shotsPerRequest, 300,
                               serial);
        calibSecs = std::min(calibSecs, phbench::now() - t0);
    }
    row.calibRate = row.shotsPerRequest / calibSecs;

    // --- the service under saturation: one persistent instance (and
    // worker pool) across all phases.
    api::DecodeService service;
    for (std::size_t clients : kClientCounts) {
        Phase best;
        for (std::size_t rep = 0; rep < reps; ++rep) {
            Phase p = runPhase(service, model, cfg.name, clients,
                               row.shotsPerRequest, row.shardShots);
            if (best.clients == 0 || p.secs < best.secs) {
                best = p;
            }
        }
        if (!row.phases.empty() &&
            best.failures != row.phases.front().failures) {
            row.identicalAcrossPhases = false;
        }
        row.phases.push_back(best);
    }
    row.stats = service.stats();
    return row;
}

} // namespace

int
main()
{
    std::printf("=== DecodeService saturation: N clients, one persistent "
                "service ===\n");
    std::printf("Expected shape: single-client shots/sec ~= raw serial "
                "rate; identical failures at every client count; "
                "shots/sec non-collapsing (multi-core: scaling up) as "
                "clients grow.\n\n");

    const Config configs[] = {
        {"lp39", code::benchmarkLp39, 3, 2e-3, 5},
        {"rqt54", code::benchmarkRqt54, 4, 2e-3, 33},
    };

    const char *basePath = std::getenv("PROPHUNT_DECODE_SERVICE_BASELINE");
    std::string baseline =
        basePath ? basePath
                 : "../bench/results/decode_service_baseline.json";

    std::vector<Row> rows;
    bool identical = true;
    bool gateHolds = true;
    std::string gateDetail;
    std::printf("%-7s %7s %7s %8s %12s | %8s %10s %10s %8s\n", "code",
                "shots/r", "shards", "clients", "calib/s", "reqs/s",
                "shots/s", "scaling", "bits==");
    for (const Config &cfg : configs) {
        Row row = runConfig(cfg);
        double single = row.phases.front().shotsPerSec;
        for (const Phase &ph : row.phases) {
            std::printf("%-7s %7zu %7zu %8zu %12.0f | %8.2f %10.0f %9.2fx "
                        "%8s\n",
                        row.name.c_str(), row.shotsPerRequest,
                        row.shotsPerRequest / row.shardShots, ph.clients,
                        row.calibRate, ph.requestsPerSec, ph.shotsPerSec,
                        ph.shotsPerSec / single,
                        row.identicalAcrossPhases ? "yes" : "NO");
        }
        identical = identical && row.identicalAcrossPhases;

        if (row.name == "rqt54") {
            // Scaling gate: more clients may never collapse throughput
            // below 0.95x the single-client rate — demanded only while
            // the machine has a core per client (an oversubscribed box
            // legitimately pays contention for extra clients).
            std::size_t cores = std::max<std::size_t>(
                1, std::thread::hardware_concurrency());
            for (const Phase &ph : row.phases) {
                if (ph.clients <= cores && ph.shotsPerSec < 0.95 * single) {
                    gateHolds = false;
                    char buf[160];
                    std::snprintf(buf, sizeof buf,
                                  "%zu clients %.0f shots/s < 0.95x "
                                  "single-client %.0f shots/s on rqt54",
                                  ph.clients, ph.shotsPerSec, single);
                    gateDetail = buf;
                }
            }
            // Committed-baseline gate, guarded by the calibration rate:
            // only on hardware at least as fast as the baseline's may
            // the committed single-client rate be demanded (5% slack).
            double committedCalib = phbench::baselineValue(
                baseline, "rqt54", "calib_shots_per_sec");
            double committedSingle = phbench::baselineValue(
                baseline, "rqt54", "single_client_shots_per_sec");
            if (committedCalib > 0 && committedSingle > 0 &&
                row.calibRate >= committedCalib &&
                single < 0.95 * committedSingle) {
                gateHolds = false;
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "single client %.0f shots/s < 0.95x "
                              "committed %.0f shots/s on rqt54",
                              single, committedSingle);
                gateDetail = buf;
            }
        }
        rows.push_back(std::move(row));
    }

    std::string path = phbench::benchOutPath("BENCH_decode_service.json");
    if (FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "{\n  \"bench\": \"decode_service\",\n"
                        "  \"requests_per_phase\": %zu,\n  \"configs\": [\n",
                    kRequestsPerPhase);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            double single = r.phases.front().shotsPerSec;
            std::fprintf(
                f,
                "    {\"code\": \"%s\", \"p\": %g,\n"
                "     \"shots_per_request\": %zu,\n"
                "     \"shard_shots\": %zu,\n"
                "     \"calib_shots_per_sec\": %.1f,\n"
                "     \"single_client_shots_per_sec\": %.1f,\n",
                r.name.c_str(), r.p, r.shotsPerRequest, r.shardShots,
                r.calibRate, single);
            for (const Phase &ph : r.phases) {
                std::fprintf(f,
                             "     \"clients_%zu_requests_per_sec\": %.2f,\n"
                             "     \"clients_%zu_shots_per_sec\": %.1f,\n"
                             "     \"clients_%zu_scaling\": %.3f,\n",
                             ph.clients, ph.requestsPerSec, ph.clients,
                             ph.shotsPerSec, ph.clients,
                             ph.shotsPerSec / single);
            }
            std::fprintf(
                f,
                "     \"coalesced_requests\": %zu,\n"
                "     \"work_steals\": %zu,\n"
                "     \"peak_queue_depth\": %zu,\n"
                "     \"clone_hits\": %zu, \"clone_misses\": %zu,\n"
                "     \"identical_across_clients\": %s}%s\n",
                r.stats.coalescedRequests, r.stats.steals,
                r.stats.peakQueueDepth, r.stats.cloneHits,
                r.stats.cloneMisses,
                r.identicalAcrossPhases ? "true" : "false",
                i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("\nwrote %s (baseline: %s)\n", path.c_str(),
                    baseline.c_str());
    }

    if (!identical) {
        std::fprintf(stderr, "decode_service: results differ across "
                             "client counts (determinism violation)\n");
        return 1;
    }
    if (!gateHolds) {
        std::fprintf(stderr, "decode_service: saturation gate: %s\n",
                     gateDetail.c_str());
        return 1;
    }
    return 0;
}

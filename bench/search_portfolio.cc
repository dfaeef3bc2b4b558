/**
 * @file
 * Schedule-search portfolio race: MaxSAT vs beam search vs
 * branch-and-bound at matched anytime budgets.
 *
 * For each start schedule the full portfolio runs once
 * (search::runPortfolio) and the per-strategy SearchStats are reported:
 * expansions, prune/dead-end counts, best objective reached, and
 * expansions-to-first-improvement. The portfolio's best verified
 * objective is the gate metric — it is bit-deterministic at expansion
 * budgets, so the committed baseline is compared exactly:
 *
 *  - FAILS if the portfolio returns a schedule objective-worse than its
 *    start (the anytime contract);
 *  - FAILS if, at the default internal budgets, the portfolio's best
 *    objective regresses behind the committed baseline
 *    ($PROPHUNT_SEARCH_PORTFOLIO_BASELINE, default
 *    ../bench/results/search_portfolio_baseline.json).
 *
 * Budget overrides (PROPHUNT_SEARCH_EXPANSIONS,
 * PROPHUNT_SEARCH_MAXSAT_ITERS) disable the baseline gate: the
 * committed numbers are only meaningful at the budgets they were
 * recorded at. Writes $PROPHUNT_BENCH_OUT (default
 * BENCH_search_portfolio.json). PROPHUNT_FULL adds the rqt60 LDPC
 * config on top of the surface-code defaults.
 *
 * Expansion-rate gates (surface_d5_poor beam, also skipped under budget
 * overrides):
 *
 *  - FAILS if the incremental beam expands < 5x faster than a same-run
 *    scratch calibration (deep copy + from-scratch evaluate + full
 *    re-hash per expansion — the pre-incremental cost model). Same-run
 *    calibration makes this gate machine-independent.
 *  - FAILS if the machine's scratch calibration is at least as fast as
 *    the committed one (same-or-better hardware) but the beam rate
 *    drops below half the committed beam rate.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "search/incremental.h"
#include "search/portfolio.h"

using namespace prophunt;

namespace {

// Fixed internal budgets: the determinism contract makes the gate an
// exact comparison, but only while everyone runs the same budgets.
constexpr std::size_t kDefaultExpansions = 4000;
constexpr std::size_t kDefaultMaxSatIters = 2;
constexpr uint64_t kSeed = 29;

struct StrategyRow
{
    std::string name;
    bool winner = false;
    search::SearchStats stats;
};

struct Row
{
    std::string code;
    uint64_t startObjective = 0;
    uint64_t portfolioObjective = 0;
    double secs = 0.0;
    /** Same-run scratch-evaluation rate (0 = not calibrated). */
    double scratchRate = 0.0;
    std::vector<StrategyRow> strategies;
};

/**
 * Expansions/sec of the pre-incremental cost model: every expansion
 * pays a deep schedule copy, a from-scratch objective evaluation, and
 * a full schedule re-hash. The incremental beam rate is gated against
 * this number measured in the same process, so the ratio is a
 * machine-independent speedup, not an absolute-time assertion.
 */
double
scratchCalibration(const circuit::SmSchedule &start, std::size_t count)
{
    search::ScheduleObjective objective(start.codePtr());
    std::vector<search::Move> moves;
    search::enumerateMoves(start, moves);
    if (moves.empty() || count == 0) {
        return 0.0;
    }
    uint64_t sink = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < count; ++i) {
        circuit::SmSchedule next =
            search::applyMove(start, moves[i % moves.size()]);
        sink ^= objective.evaluate(next) ^ search::scheduleKey(next);
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    benchmark::DoNotOptimize(sink);
    return secs > 0.0 ? (double)count / secs : 0.0;
}

/** As decode_service: numeric @p key of @p code's entry in one of our
 * own committed JSON artifacts (0 when absent). */
double
baselineValue(const std::string &path, const std::string &code,
              const char *key)
{
    FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
        return 0.0;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        text.append(buf, n);
    }
    std::fclose(f);
    std::string anchor = "\"code\": \"" + code + "\"";
    std::size_t at = text.find(anchor);
    if (at == std::string::npos) {
        return 0.0;
    }
    std::string quoted = std::string("\"") + key + "\":";
    std::size_t k = text.find(quoted, at);
    if (k == std::string::npos) {
        return 0.0;
    }
    return std::atof(text.c_str() + k + quoted.size());
}

Row
race(const std::string &label, const circuit::SmSchedule &start,
     std::size_t rounds)
{
    core::PropHuntOptions opts;
    opts.iterations =
        api::envSize("PROPHUNT_SEARCH_MAXSAT_ITERS", kDefaultMaxSatIters);
    opts.samplesPerIteration = 100;
    opts.maxAmbiguousPerIteration = 4;
    opts.maxCost = 8;
    opts.seed = kSeed;
    opts.ler = phbench::lerOptions();
    opts.threads = phbench::config().threads;

    search::PortfolioOptions portfolio;
    portfolio.enabled = true;
    std::size_t expansions =
        api::envSize("PROPHUNT_SEARCH_EXPANSIONS", kDefaultExpansions);
    portfolio.beamBudget = {expansions, 0.0};
    portfolio.bnbBudget = {expansions, 0.0};

    search::ScheduleObjective objective(start.codePtr());
    Row row;
    row.code = label;
    row.startObjective = objective.evaluate(start);

    auto t0 = std::chrono::steady_clock::now();
    core::OptimizeResult res =
        search::runPortfolio(start, rounds, opts, portfolio);
    row.secs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    row.portfolioObjective = objective.evaluate(res.finalSchedule());
    for (const search::StrategyReport &rep : res.searchReports) {
        row.strategies.push_back({rep.name, rep.winner, rep.stats});
    }

    std::printf("\n--- %s (start objective %llu) ---\n", label.c_str(),
                (unsigned long long)row.startObjective);
    std::printf("%14s %10s %8s %8s %16s %10s %10s %8s %8s %8s\n",
                "strategy", "expansions", "pruned", "dead",
                "best_objective", "first_imp", "exp/s", "tt_hit",
                "tt_miss", "winner");
    for (const StrategyRow &s : row.strategies) {
        std::printf(
            "%14s %10llu %8llu %8llu %16llu %10llu %10.0f %8llu %8llu "
            "%8s\n",
            s.name.c_str(), (unsigned long long)s.stats.expansions,
            (unsigned long long)s.stats.prunedByBound,
            (unsigned long long)s.stats.deadEnds,
            (unsigned long long)s.stats.bestObjective,
            (unsigned long long)s.stats.firstImprovementExpansions,
            s.stats.expansionsPerSec(),
            (unsigned long long)s.stats.transpositionHits,
            (unsigned long long)s.stats.transpositionMisses,
            s.winner ? "yes" : "");
    }
    std::printf("portfolio best %llu in %.2fs\n",
                (unsigned long long)row.portfolioObjective, row.secs);
    return row;
}

} // namespace

static void
BM_ObjectiveEvaluate(benchmark::State &state)
{
    code::SurfaceCode s(5);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    search::ScheduleObjective obj(cp);
    circuit::SmSchedule sched = circuit::poorSurfaceSchedule(s);
    for (auto _ : state) {
        benchmark::DoNotOptimize(obj.evaluate(sched));
    }
}
BENCHMARK(BM_ObjectiveEvaluate)->Unit(benchmark::kMicrosecond);

int
main(int argc, char **argv)
{
    std::printf("=== Schedule-search portfolio: MaxSAT vs beam vs B&B at "
                "matched budgets ===\n");
    std::printf("Expected shape: beam/B&B find hook-alignment improvements "
                "within thousands of expansions; MaxSAT verifies against "
                "the circuit-level model but costs solver time.\n");

    std::vector<Row> rows;
    {
        code::SurfaceCode s(3);
        rows.push_back(race("surface_d3_poor",
                            circuit::poorSurfaceSchedule(s), 3));
    }
    {
        code::SurfaceCode s(5);
        rows.push_back(race("surface_d5_poor",
                            circuit::poorSurfaceSchedule(s), 5));
        rows.back().scratchRate =
            scratchCalibration(circuit::poorSurfaceSchedule(s), 400);
        std::printf("scratch calibration (d5): %.0f expansions/sec\n",
                    rows.back().scratchRate);
    }
    if (api::envFlag("PROPHUNT_FULL")) {
        auto c = code::benchmarkRqt60();
        auto cp = std::make_shared<const code::CssCode>(c);
        rows.push_back(
            race("rqt60_coloration", circuit::colorationSchedule(cp), 6));
    }

    bool failed = false;
    for (const Row &row : rows) {
        if (row.portfolioObjective > row.startObjective) {
            std::printf("FAIL: %s portfolio returned a worse schedule "
                        "than its start (%llu > %llu)\n",
                        row.code.c_str(),
                        (unsigned long long)row.portfolioObjective,
                        (unsigned long long)row.startObjective);
            failed = true;
        }
    }

    // Committed-baseline gate: exact because the portfolio objective is
    // bit-deterministic at expansion budgets — but only at the default
    // budgets the baseline was recorded at.
    bool budgetsOverridden =
        std::getenv("PROPHUNT_SEARCH_EXPANSIONS") != nullptr ||
        std::getenv("PROPHUNT_SEARCH_MAXSAT_ITERS") != nullptr;
    const char *basePath = std::getenv("PROPHUNT_SEARCH_PORTFOLIO_BASELINE");
    std::string baseline =
        basePath ? basePath
                 : "../bench/results/search_portfolio_baseline.json";
    if (budgetsOverridden) {
        std::printf("\nbaseline gate skipped (budget overridden by env)\n");
    } else {
        for (const Row &row : rows) {
            double committed = baselineValue(baseline, row.code,
                                             "portfolio_objective");
            if (committed <= 0.0) {
                continue; // config absent from baseline: no gate
            }
            if ((double)row.portfolioObjective > committed) {
                std::printf("FAIL: %s portfolio objective %llu regressed "
                            "behind committed baseline %.0f\n",
                            row.code.c_str(),
                            (unsigned long long)row.portfolioObjective,
                            committed);
                failed = true;
            }
        }

        // Expansion-rate gates on the d5 beam. The 5x ratio compares
        // against the same-run scratch calibration, so it holds on any
        // machine; the absolute-rate gate only fires on hardware that
        // matches or beats the committed calibration speed.
        for (const Row &row : rows) {
            if (row.code != "surface_d5_poor" || row.scratchRate <= 0.0) {
                continue;
            }
            double beam_rate = 0.0;
            for (const StrategyRow &s : row.strategies) {
                if (s.name == "beam") {
                    beam_rate = s.stats.expansionsPerSec();
                }
            }
            if (beam_rate <= 0.0) {
                continue;
            }
            double ratio = beam_rate / row.scratchRate;
            std::printf("\nd5 beam incremental speedup: %.1fx over "
                        "scratch (%.0f vs %.0f expansions/sec)\n",
                        ratio, beam_rate, row.scratchRate);
            if (ratio < 5.0) {
                std::printf("FAIL: incremental beam is only %.1fx the "
                            "scratch rate (gate: >= 5x)\n",
                            ratio);
                failed = true;
            }
            double committed_scratch = baselineValue(
                baseline, row.code, "scratch_expansions_per_sec");
            double committed_beam = baselineValue(
                baseline, row.code, "beam_expansions_per_sec");
            if (committed_scratch > 0.0 && committed_beam > 0.0 &&
                row.scratchRate >= committed_scratch &&
                beam_rate < 0.5 * committed_beam) {
                std::printf(
                    "FAIL: machine matches committed calibration "
                    "(%.0f >= %.0f scratch exp/s) but beam rate %.0f "
                    "fell below half the committed %.0f\n",
                    row.scratchRate, committed_scratch, beam_rate,
                    committed_beam);
                failed = true;
            }
        }
    }

    const char *outPath = std::getenv("PROPHUNT_BENCH_OUT");
    std::string path = outPath ? outPath : "BENCH_search_portfolio.json";
    if (FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "{\n  \"bench\": \"search_portfolio\",\n");
        std::fprintf(f, "  \"configs\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &row = rows[i];
            std::fprintf(f, "    {\"code\": \"%s\",\n", row.code.c_str());
            std::fprintf(f, "     \"start_objective\": %llu,\n",
                         (unsigned long long)row.startObjective);
            std::fprintf(f, "     \"portfolio_objective\": %llu,\n",
                         (unsigned long long)row.portfolioObjective);
            std::fprintf(f, "     \"seconds\": %.3f,\n", row.secs);
            if (row.scratchRate > 0.0) {
                std::fprintf(f,
                             "     \"scratch_expansions_per_sec\": %.0f,\n",
                             row.scratchRate);
                for (const StrategyRow &sr : row.strategies) {
                    if (sr.name == "beam") {
                        std::fprintf(
                            f,
                            "     \"beam_expansions_per_sec\": %.0f,\n",
                            sr.stats.expansionsPerSec());
                    }
                }
            }
            std::fprintf(f, "     \"strategies\": [\n");
            for (std::size_t s = 0; s < row.strategies.size(); ++s) {
                const StrategyRow &sr = row.strategies[s];
                std::fprintf(
                    f,
                    "      {\"name\": \"%s\", \"winner\": %s,\n"
                    "       \"expansions\": %llu, \"pruned\": %llu, "
                    "\"dead_ends\": %llu,\n"
                    "       \"best_objective\": %llu, "
                    "\"first_improvement_expansions\": %llu,\n"
                    "       \"expansions_per_sec\": %.0f, "
                    "\"transposition_hits\": %llu, "
                    "\"transposition_misses\": %llu,\n"
                    "       \"total_us\": %llu}%s\n",
                    sr.name.c_str(), sr.winner ? "true" : "false",
                    (unsigned long long)sr.stats.expansions,
                    (unsigned long long)sr.stats.prunedByBound,
                    (unsigned long long)sr.stats.deadEnds,
                    (unsigned long long)sr.stats.bestObjective,
                    (unsigned long long)sr.stats.firstImprovementExpansions,
                    sr.stats.expansionsPerSec(),
                    (unsigned long long)sr.stats.transpositionHits,
                    (unsigned long long)sr.stats.transpositionMisses,
                    (unsigned long long)sr.stats.totalUs,
                    s + 1 < row.strategies.size() ? "," : "");
            }
            std::fprintf(f, "     ]}%s\n",
                         i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("\nwrote %s (baseline: %s)\n", path.c_str(),
                    baseline.c_str());
    }

    if (failed) {
        return 1;
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

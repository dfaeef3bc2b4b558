/**
 * @file
 * Differential oracle for candidate pruning (paper Section 5.4).
 *
 * referenceVerify below is the straightforward form of verifyChange: it
 * rebuilds the candidate's whole circuit and DEM and runs the ambiguity
 * and logical checks on it. Every candidate enumerated from sampled
 * ambiguous subgraphs on surface d=3 (poor schedule), surface d=5 and lp39
 * (coloration schedules), in both memory bases, under uniform and idle
 * noise, must get the same verdict, schedule and depth from the library.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "prophunt/optimizer.h"
#include "sim/dem_builder.h"

using namespace prophunt;
using namespace prophunt::core;

namespace {

/** Schedule-independent identity of a CNOT fault. */
using FaultKey = std::tuple<std::size_t, std::size_t, std::size_t, uint8_t,
                            uint8_t>; // check, data qubit, round, p0, p1

FaultKey
keyOf(const sim::FaultLoc &loc)
{
    return {loc.cnot.check, loc.cnot.dataQubit, loc.cnot.round,
            (uint8_t)loc.p0, (uint8_t)loc.p1};
}

/** Full-rebuild verification: the oracle verifyChange must agree with. */
std::optional<VerifiedChange>
referenceVerify(const circuit::SmSchedule &base, const CircuitChange &change,
                const std::vector<uint32_t> &ambiguous_detectors,
                const std::vector<uint32_t> &logical_errors,
                const sim::Dem &dem, std::size_t rounds,
                circuit::MemoryBasis basis, const sim::NoiseModel &noise)
{
    circuit::SmSchedule candidate = change.apply(base);
    if (!candidate.commutationValid()) {
        return std::nullopt;
    }
    auto ts = candidate.computeTimesteps();
    if (!ts) {
        return std::nullopt;
    }
    circuit::SmCircuit circ =
        circuit::buildMemoryCircuit(candidate, rounds, basis);
    sim::Dem new_dem = sim::buildDem(circ, noise);
    std::vector<uint32_t> interior =
        interiorErrors(new_dem, ambiguous_detectors);
    if (hasAmbiguity(new_dem, ambiguous_detectors, interior)) {
        return std::nullopt;
    }
    std::map<FaultKey, uint32_t> new_mech_of;
    for (std::size_t e = 0; e < new_dem.errors.size(); ++e) {
        for (const sim::FaultLoc &loc : new_dem.errors[e].sources) {
            if (loc.isCnot) {
                new_mech_of[keyOf(loc)] = (uint32_t)e;
            }
        }
    }
    std::vector<uint32_t> det_parity(new_dem.numDetectors, 0);
    std::vector<uint32_t> obs_parity(new_dem.numObservables, 0);
    bool any_mapped = false;
    for (uint32_t err : logical_errors) {
        for (const sim::FaultLoc &loc : dem.errors[err].sources) {
            if (!loc.isCnot) {
                continue;
            }
            auto it = new_mech_of.find(keyOf(loc));
            if (it == new_mech_of.end()) {
                continue;
            }
            any_mapped = true;
            const auto &mech = new_dem.errors[it->second];
            for (uint32_t d : mech.detectors) {
                det_parity[d] ^= 1;
            }
            for (uint32_t o : mech.observables) {
                obs_parity[o] ^= 1;
            }
            break;
        }
    }
    if (any_mapped) {
        bool detected = false, logical = false;
        for (uint32_t v : det_parity) {
            detected |= v != 0;
        }
        for (uint32_t v : obs_parity) {
            logical |= v != 0;
        }
        if (!detected && logical) {
            return std::nullopt;
        }
    }
    return VerifiedChange{change, std::move(candidate), ts->depth};
}

/** A subgraph with its min-weight logical error and its candidates. */
struct Probe
{
    Subgraph sg;
    MinWeightResult mw;
    std::vector<CircuitChange> candidates;
};

/** One (schedule, basis, noise) cell and its probes. */
struct Cell
{
    std::string label;
    circuit::SmSchedule schedule;
    std::size_t rounds;
    circuit::MemoryBasis basis;
    sim::NoiseModel noise;
    circuit::SmCircuit circ;
    sim::Dem dem;
    std::vector<Probe> probes;
};

/**
 * Up to @p keep distinct ambiguous subgraphs with a solved logical error,
 * and every candidate enumerated for them.
 */
std::vector<Probe>
probesOf(const Cell &cell, std::size_t keep, uint64_t seed)
{
    SubgraphFinder finder(cell.dem);
    sim::Rng rng(seed);
    std::vector<Probe> out;
    std::set<std::vector<uint32_t>> seen;
    for (int trial = 0; trial < 400 && out.size() < keep; ++trial) {
        Subgraph sg = finder.sample(rng, 48);
        if (!sg.ambiguous) {
            continue;
        }
        std::vector<uint32_t> key = sg.detectors;
        std::sort(key.begin(), key.end());
        if (!seen.insert(key).second) {
            continue;
        }
        MinWeightResult mw = solveMinWeightLogical(cell.dem, sg, 12, 10.0);
        if (!mw.found || mw.weight == 0) {
            continue;
        }
        std::vector<CircuitChange> cands = enumerateChanges(
            cell.schedule, cell.dem, cell.circ, mw.errors, rng);
        out.push_back({std::move(sg), std::move(mw), std::move(cands)});
    }
    return out;
}

/** Every oracle cell: three codes x two bases x two noise models. */
std::vector<Cell>
oracleCells()
{
    struct Start
    {
        std::string name;
        circuit::SmSchedule schedule;
        std::size_t rounds;
    };
    code::SurfaceCode s3(3);
    auto surface5 =
        std::make_shared<const code::CssCode>(code::benchmarkSurface(5));
    auto lp39 = std::make_shared<const code::CssCode>(code::benchmarkLp39());
    const Start starts[] = {
        {"surface3 poor", circuit::poorSurfaceSchedule(s3), 3},
        {"surface5 coloration", circuit::colorationSchedule(surface5), 5},
        {"lp39 coloration", circuit::colorationSchedule(lp39), 3},
    };
    std::vector<Cell> cells;
    uint64_t seed = 1;
    for (const Start &st : starts) {
        for (auto basis :
             {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
            for (bool idle : {false, true}) {
                Cell c{st.name + (basis == circuit::MemoryBasis::Z ? " Z"
                                                                   : " X") +
                           (idle ? " idle" : ""),
                       st.schedule,
                       st.rounds,
                       basis,
                       idle ? sim::NoiseModel::withIdle(1e-3, 1e-4)
                            : sim::NoiseModel::uniform(1e-3),
                       {},
                       {},
                       {}};
                c.circ =
                    circuit::buildMemoryCircuit(c.schedule, c.rounds, basis);
                c.dem = sim::buildDem(c.circ, c.noise);
                c.probes = probesOf(c, 4, seed++);
                cells.push_back(std::move(c));
            }
        }
    }
    return cells;
}

const std::vector<Cell> &
cells()
{
    static const std::vector<Cell> all = oracleCells();
    return all;
}

/**
 * Ambiguity restricted to the interior mechanisms that have detectors: the
 * columns a sweep-level pre-check sees. A subset of the full interior set.
 */
bool
detectorInteriorAmbiguity(const sim::Dem &dem,
                          const std::vector<uint32_t> &detectors)
{
    std::vector<uint32_t> cols;
    for (uint32_t e : interiorErrors(dem, detectors)) {
        if (!dem.errors[e].detectors.empty()) {
            cols.push_back(e);
        }
    }
    return hasAmbiguity(dem, detectors, cols);
}

} // namespace

TEST(PruningOracle, VerifyChangeMatchesFullRebuild)
{
    std::size_t total = 0, accepted = 0;
    for (const Cell &cell : cells()) {
        std::size_t cell_total = 0;
        for (const Probe &pr : cell.probes) {
            for (const CircuitChange &ch : pr.candidates) {
                auto want = referenceVerify(
                    cell.schedule, ch, pr.sg.detectors, pr.mw.errors,
                    cell.dem, cell.rounds, cell.basis, cell.noise);
                auto got = verifyChange(cell.schedule, ch, pr.sg.detectors,
                                        pr.mw.errors, cell.dem, cell.rounds,
                                        cell.basis, cell.noise);
                ASSERT_EQ(want.has_value(), got.has_value())
                    << cell.label << " " << ch.key();
                ++cell_total;
                if (!want) {
                    continue;
                }
                ++accepted;
                EXPECT_EQ(got->change.key(), ch.key()) << cell.label;
                EXPECT_TRUE(got->schedule == want->schedule)
                    << cell.label << " " << ch.key();
                EXPECT_EQ(got->depth, want->depth)
                    << cell.label << " " << ch.key();
            }
        }
        EXPECT_GT(cell_total, 0u) << cell.label << ": no candidates";
        total += cell_total;
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, total);
}

TEST(PruningOracle, DetectorInteriorColumnsNeverRejectAcceptedCandidate)
{
    // The column-subset argument behind the sweep pre-check, checked on
    // the rebuilt DEMs: dropping the detector-free interior mechanisms can
    // only hide ambiguity, never invent it.
    std::size_t accepted = 0;
    for (const Cell &cell : cells()) {
        for (const Probe &pr : cell.probes) {
            for (const CircuitChange &ch : pr.candidates) {
                circuit::SmSchedule cand = ch.apply(cell.schedule);
                if (!cand.commutationValid() || !cand.schedulable()) {
                    continue;
                }
                auto want = referenceVerify(
                    cell.schedule, ch, pr.sg.detectors, pr.mw.errors,
                    cell.dem, cell.rounds, cell.basis, cell.noise);
                if (!want) {
                    continue;
                }
                ++accepted;
                sim::Dem dem = sim::buildDem(
                    circuit::buildMemoryCircuit(cand, cell.rounds,
                                                cell.basis),
                    cell.noise);
                EXPECT_FALSE(
                    detectorInteriorAmbiguity(dem, pr.sg.detectors))
                    << cell.label << " " << ch.key();
            }
        }
    }
    EXPECT_GT(accepted, 0u);
}

TEST(PruningOracle, PrecheckNeverRejectsAcceptedCandidate)
{
    // The library's pre-check on the candidate's sweep: a rejection there
    // must be a rejection of the full rebuild.
    std::size_t valid = 0, rejected = 0;
    for (const Cell &cell : cells()) {
        for (const Probe &pr : cell.probes) {
            for (const CircuitChange &ch : pr.candidates) {
                circuit::SmSchedule cand = ch.apply(cell.schedule);
                if (!cand.commutationValid() || !cand.schedulable()) {
                    continue;
                }
                ++valid;
                circuit::SmCircuit circ = circuit::buildMemoryCircuit(
                    cand, cell.rounds, cell.basis);
                sim::FaultSweep sweep(circ, cell.noise);
                if (!precheckRejects(sweep, pr.sg.detectors)) {
                    continue;
                }
                ++rejected;
                EXPECT_FALSE(referenceVerify(cell.schedule, ch,
                                             pr.sg.detectors, pr.mw.errors,
                                             cell.dem, cell.rounds,
                                             cell.basis, cell.noise))
                    << cell.label << " " << ch.key();
            }
        }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_LT(rejected, valid);
}

TEST(PruningOracle, GroupedStageMatchesPerTaskCalls)
{
    // verifyChanges groups each cell's tasks by candidate schedule; every
    // task must still get exactly verifyChange's verdict, at any thread
    // count, with the same work counters.
    std::size_t valid_total = 0, schedules_total = 0;
    for (const Cell &cell : cells()) {
        std::vector<VerifyTask> tasks;
        for (const Probe &pr : cell.probes) {
            for (const CircuitChange &ch : pr.candidates) {
                tasks.push_back({&ch, cell.basis, &pr.sg.detectors,
                                 &pr.mw.errors, &cell.dem});
            }
        }
        VerifyStats serial_stats, parallel_stats;
        auto serial = verifyChanges(cell.schedule, tasks, cell.rounds,
                                    cell.noise, 1, &serial_stats);
        auto parallel = verifyChanges(cell.schedule, tasks, cell.rounds,
                                      cell.noise, 4, &parallel_stats);
        ASSERT_EQ(serial.size(), tasks.size());
        ASSERT_EQ(parallel.size(), tasks.size());
        std::size_t verified = 0;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            const VerifyTask &t = tasks[i];
            auto want = verifyChange(cell.schedule, *t.change,
                                     *t.ambiguousDetectors, *t.logicalErrors,
                                     *t.dem, cell.rounds, cell.basis,
                                     cell.noise);
            for (const auto *got : {&serial[i], &parallel[i]}) {
                ASSERT_EQ(got->has_value(), want.has_value())
                    << cell.label << " task " << i;
                if (want) {
                    EXPECT_EQ((*got)->change.key(), t.change->key());
                    EXPECT_TRUE((*got)->schedule == want->schedule);
                    EXPECT_EQ((*got)->depth, want->depth);
                }
            }
            verified += want.has_value();
            circuit::SmSchedule cand = t.change->apply(cell.schedule);
            valid_total += cand.commutationValid() && cand.schedulable();
        }
        EXPECT_EQ(serial_stats.candidateSchedules,
                  parallel_stats.candidateSchedules)
            << cell.label;
        EXPECT_EQ(serial_stats.precheckRejected,
                  parallel_stats.precheckRejected)
            << cell.label;
        EXPECT_EQ(serial_stats.fullDemBuilds, parallel_stats.fullDemBuilds)
            << cell.label;
        EXPECT_LE(serial_stats.fullDemBuilds,
                  serial_stats.candidateSchedules);
        EXPECT_LE(verified + serial_stats.precheckRejected, tasks.size());
        schedules_total += serial_stats.candidateSchedules;
    }
    // Different subgraphs propose the same change, so there are fewer
    // sweeps than valid candidates.
    EXPECT_LT(schedules_total, valid_total);
}

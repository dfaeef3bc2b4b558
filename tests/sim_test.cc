/**
 * @file
 * Tests for the circuit-level model: fault propagation, DEM extraction,
 * probability merging, and the DEM sampler.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "circuit/coloration.h"
#include "circuit/surface_schedules.h"
#include "code/codes.h"
#include "code/surface.h"
#include "sim/dem_builder.h"
#include "sim/rng.h"
#include "support/sampling.h"

using namespace prophunt;
using namespace prophunt::sim;
using namespace prophunt::oracles;

namespace {

circuit::SmCircuit
d3Circuit(circuit::MemoryBasis basis, std::size_t rounds = 3)
{
    code::SurfaceCode s(3);
    auto cp = std::make_shared<const code::CssCode>(s.code());
    return circuit::buildMemoryCircuit(circuit::colorationSchedule(cp),
                                       rounds, basis);
}

} // namespace

TEST(DemBuilder, NoNoiseNoErrors)
{
    Dem dem = buildDem(d3Circuit(circuit::MemoryBasis::Z),
                       NoiseModel{0, 0, 0});
    EXPECT_TRUE(dem.errors.empty());
}

TEST(DemBuilder, EveryMechanismHasSourcesAndProbability)
{
    Dem dem = buildDem(d3Circuit(circuit::MemoryBasis::Z),
                       NoiseModel::uniform(1e-3));
    ASSERT_FALSE(dem.errors.empty());
    for (const auto &mech : dem.errors) {
        EXPECT_FALSE(mech.sources.empty());
        EXPECT_GT(mech.p, 0.0);
        EXPECT_LT(mech.p, 0.1);
        // Detectors sorted and unique.
        for (std::size_t i = 1; i < mech.detectors.size(); ++i) {
            EXPECT_LT(mech.detectors[i - 1], mech.detectors[i]);
        }
    }
}

TEST(DemBuilder, NoUndetectedSingleFaults)
{
    // A valid SM circuit must detect every single fault that flips an
    // observable: no mechanism with empty detectors and nonempty
    // observables (that would be d_eff = 1).
    for (auto basis : {circuit::MemoryBasis::Z, circuit::MemoryBasis::X}) {
        Dem dem = buildDem(d3Circuit(basis), NoiseModel::uniform(1e-3));
        for (const auto &mech : dem.errors) {
            EXPECT_FALSE(mech.detectors.empty() &&
                         !mech.observables.empty());
        }
    }
}

TEST(DemBuilder, HandCheckedSingleQubitCode)
{
    // One data qubit, one Z check of weight 1 is not a CSS code; use a
    // two-qubit repetition code: Z checks {q0 q1}, memory-Z.
    gf2::Matrix hz = gf2::Matrix::fromRows({{1, 1}});
    auto cp = std::make_shared<const code::CssCode>(
        code::CssCode(gf2::Matrix(0, 2), hz, "rep2"));
    circuit::SmSchedule s(cp, {{0, 1}}, {{0}, {0}});
    circuit::SmCircuit c =
        circuit::buildMemoryCircuit(s, 2, circuit::MemoryBasis::Z);
    // Only CNOT noise.
    Dem dem = buildDem(c, NoiseModel{0.0, 1e-3, 0.0});
    // Each mechanism must touch at most 2 rounds of the single check.
    EXPECT_GT(dem.errors.size(), 0u);
    for (const auto &mech : dem.errors) {
        EXPECT_LE(mech.detectors.size(), 3u);
    }
    // An X fault on data qubit 0 after the first CNOT of round 0 flips the
    // round-1 detector and the final reconstruction, plus the observable
    // (qubit 0 is in the Z logical = {0} or {0,1}-ish). Check that at
    // least one mechanism flips the observable and is detected.
    bool seen_logical = false;
    for (const auto &mech : dem.errors) {
        if (!mech.observables.empty() && !mech.detectors.empty()) {
            seen_logical = true;
        }
    }
    EXPECT_TRUE(seen_logical);
}

TEST(DemBuilder, ProbabilityMergeFormula)
{
    // Two faults with identical signatures at p each combine to
    // 2p(1-p); verify some mechanism has a merged probability.
    Dem dem = buildDem(d3Circuit(circuit::MemoryBasis::Z),
                       NoiseModel::uniform(3e-3));
    double p1 = 3e-3 / 3.0, p2 = 3e-3 / 15.0;
    (void)p1;
    bool merged = false;
    for (const auto &mech : dem.errors) {
        if (mech.sources.size() >= 2) {
            merged = true;
            EXPECT_GT(mech.p, p2 * 1.5);
        }
    }
    EXPECT_TRUE(merged);
}

TEST(DemBuilder, IdleNoiseAddsProbabilityMass)
{
    // Idle faults propagate like data/ancilla components of existing gate
    // faults, so they merge into existing mechanisms rather than adding
    // new ones; the total error probability mass must grow.
    auto circ = d3Circuit(circuit::MemoryBasis::Z);
    Dem base = buildDem(circ, NoiseModel::uniform(1e-3));
    Dem idle = buildDem(circ, NoiseModel::withIdle(1e-3, 1e-4));
    EXPECT_GE(idle.errors.size(), base.errors.size());
    auto mass = [](const Dem &d) {
        double total = 0;
        for (const auto &m : d.errors) {
            total += m.p;
        }
        return total;
    };
    EXPECT_GT(mass(idle), mass(base) * 1.01);
}

TEST(DemBuilder, DeterministicAcrossCalls)
{
    auto circ = d3Circuit(circuit::MemoryBasis::Z);
    Dem a = buildDem(circ, NoiseModel::uniform(1e-3));
    Dem b = buildDem(circ, NoiseModel::uniform(1e-3));
    ASSERT_EQ(a.errors.size(), b.errors.size());
    for (std::size_t e = 0; e < a.errors.size(); ++e) {
        EXPECT_EQ(a.errors[e].detectors, b.errors[e].detectors);
        EXPECT_DOUBLE_EQ(a.errors[e].p, b.errors[e].p);
    }
}

TEST(DemBuilder, CheckMatrixShapes)
{
    Dem dem = buildDem(d3Circuit(circuit::MemoryBasis::Z),
                       NoiseModel::uniform(1e-3));
    auto h = dem.checkMatrix();
    auto l = dem.logicalMatrix();
    EXPECT_EQ(h.rows(), dem.numDetectors);
    EXPECT_EQ(h.cols(), dem.errors.size());
    EXPECT_EQ(l.rows(), dem.numObservables);
    EXPECT_EQ(l.cols(), dem.errors.size());
    // Circuit-level H is far wider than the code-level matrix (Sec. 2.7).
    EXPECT_GT(h.cols(), 100u);
}

TEST(DemBuilder, RejectsInvalidNoiseStrengths)
{
    // A strength that is not a probability used to be gated out by
    // "p > 0" and silently treated as zero noise.
    auto circ = d3Circuit(circuit::MemoryBasis::Z);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {-1e-3, 1.5, nan, inf, -inf}) {
        EXPECT_THROW(buildDem(circ, NoiseModel{bad, 1e-3, 0.0}),
                     std::invalid_argument)
            << "p1=" << bad;
        EXPECT_THROW(buildDem(circ, NoiseModel{1e-3, bad, 0.0}),
                     std::invalid_argument)
            << "p2=" << bad;
        EXPECT_THROW(buildDem(circ, NoiseModel::withIdle(1e-3, bad)),
                     std::invalid_argument)
            << "pIdle=" << bad;
    }
    // The ends of [0, 1] are valid.
    EXPECT_NO_THROW(buildDem(circ, NoiseModel{0.0, 1.0, 0.0}));
    EXPECT_NO_THROW(buildDem(circ, NoiseModel::withIdle(1.0, 1.0)));
}

namespace {

/** FNV-1a fingerprint of every field of a DEM, in order. */
class DemFingerprint
{
  public:
    explicit DemFingerprint(const Dem &dem)
    {
        mix(dem.errors.size());
        for (const ErrorMechanism &m : dem.errors) {
            mix(std::bit_cast<uint64_t>(m.p));
            mixList(m.detectors);
            mixList(m.observables);
            mix(m.sources.size());
            for (const FaultLoc &s : m.sources) {
                mix(s.instr);
                mix((uint64_t)s.p0);
                mix((uint64_t)s.p1);
                mix(s.isCnot ? 1 : 0);
                mix(s.cnot.check);
                mix(s.cnot.dataQubit);
                mix(s.cnot.posInCheck);
                mix(s.cnot.round);
            }
        }
    }

    uint64_t value() const { return hash_; }

  private:
    void mix(uint64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (v >> (8 * byte)) & 0xff;
            hash_ *= 1099511628211ull;
        }
    }

    void mixList(const std::vector<uint32_t> &v)
    {
        mix(v.size());
        for (uint32_t x : v) {
            mix(x);
        }
    }

    uint64_t hash_ = 1469598103934665603ull;
};

} // namespace

TEST(DemBuilder, GoldenFingerprintsOnBenchmarkCodes)
{
    // Pinned fingerprints of the full buildDem output — mechanism order,
    // the bits of every merged p, detector and observable lists, and
    // every source location in merge order — on the benchmark codes'
    // coloration circuits, and on flagged circuits (flag weight 4) of the
    // poor surface d=3 schedule and of two coloration schedules. Any change
    // to what the circuit or DEM builder emits moves at least one constant;
    // a faster builder must leave all of them alone.
    struct Cell
    {
        const char *code;
        circuit::MemoryBasis basis;
        bool idle;
        std::size_t mechanisms;
        uint64_t hash;
        std::size_t flagWeight = 0;
    };
    using circuit::MemoryBasis;
    const Cell cells[] = {
        {"surface5", MemoryBasis::Z, false, 1638,
         11738426922369433384ull},
        {"surface5", MemoryBasis::X, false, 1651,
         14890199829795975024ull},
        {"surface5", MemoryBasis::Z, true, 1638,
         9763307749248974147ull},
        {"surface5", MemoryBasis::X, true, 1651,
         259145765775061443ull},
        {"lp39", MemoryBasis::Z, false, 1281,
         6616632346843580844ull},
        {"lp39", MemoryBasis::X, false, 1281,
         15396894487780519440ull},
        {"lp39", MemoryBasis::Z, true, 1281,
         18309545796658781770ull},
        {"lp39", MemoryBasis::X, true, 1281,
         7594455774296834400ull},
        {"rqt54", MemoryBasis::Z, false, 7371,
         1674383550238678920ull},
        {"rqt54", MemoryBasis::X, false, 7380,
         7908477255317478438ull},
        {"rqt54", MemoryBasis::Z, true, 7371,
         12485583140300476434ull},
        {"rqt54", MemoryBasis::X, true, 7380,
         10655186543066117204ull},
        {"surface3poor", MemoryBasis::Z, false, 305,
         11361548742366064084ull, 4},
        {"surface3poor", MemoryBasis::X, false, 307,
         7752994360241216ull, 4},
        {"surface3poor", MemoryBasis::Z, true, 305,
         13269639913858812114ull, 4},
        {"surface3poor", MemoryBasis::X, true, 307,
         6540893581450125599ull, 4},
        {"surface5", MemoryBasis::Z, false, 2167,
         16122376074418291872ull, 4},
        {"surface5", MemoryBasis::X, false, 2167,
         16677952678683790194ull, 4},
        {"surface5", MemoryBasis::Z, true, 2167,
         168633065350122375ull, 4},
        {"surface5", MemoryBasis::X, true, 2167,
         2051034011321518181ull, 4},
        {"lp39", MemoryBasis::Z, false, 1497,
         3822074391586449271ull, 4},
        {"lp39", MemoryBasis::X, false, 1497,
         1318131111018643581ull, 4},
        {"lp39", MemoryBasis::Z, true, 1497,
         12140761221680821297ull, 4},
        {"lp39", MemoryBasis::X, true, 1497,
         14672013529904614516ull, 4},
    };
    for (const Cell &cell : cells) {
        std::string name = cell.code;
        std::size_t rounds = name == "surface5" ? 5 : name == "rqt54" ? 4 : 3;
        circuit::SmSchedule schedule =
            name == "surface3poor"
                ? circuit::poorSurfaceSchedule(code::SurfaceCode(3))
                : circuit::colorationSchedule(
                      std::make_shared<const code::CssCode>(
                          name == "surface5" ? code::benchmarkSurface(5)
                          : name == "lp39"   ? code::benchmarkLp39()
                                             : code::benchmarkRqt54()));
        auto circ = circuit::buildMemoryCircuit(schedule, rounds, cell.basis,
                                                cell.flagWeight);
        NoiseModel noise = cell.idle ? NoiseModel::withIdle(1e-3, 1e-4)
                                     : NoiseModel::uniform(1e-3);
        Dem dem = buildDem(circ, noise);
        std::string label = name +
                            (cell.basis == MemoryBasis::Z ? " Z" : " X") +
                            (cell.idle ? " idle" : "") +
                            (cell.flagWeight ? " flagged" : "");
        EXPECT_EQ(dem.errors.size(), cell.mechanisms) << label;
        EXPECT_EQ(DemFingerprint(dem).value(), cell.hash) << label;
    }
}

TEST(FaultSweep, InteriorMechanismsAreTheDemsInteriorMechanisms)
{
    // interiorMechanisms(S) must be exactly the mechanisms of the full DEM
    // whose non-empty detector set lies inside S: same order, same
    // detector and observable lists, bit-identical p. Detector sets are
    // grown the way subgraph sampling grows them, from one mechanism
    // through mechanisms that share a detector.
    using circuit::MemoryBasis;
    auto surface5 =
        std::make_shared<const code::CssCode>(code::benchmarkSurface(5));
    auto lp39 = std::make_shared<const code::CssCode>(code::benchmarkLp39());
    struct Case
    {
        circuit::SmCircuit circ;
        NoiseModel noise;
    };
    const Case cases[] = {
        {d3Circuit(MemoryBasis::Z), NoiseModel::uniform(1e-3)},
        {buildMemoryCircuit(circuit::colorationSchedule(surface5), 5,
                            MemoryBasis::X),
         NoiseModel::withIdle(1e-3, 1e-4)},
        {buildMemoryCircuit(circuit::colorationSchedule(lp39), 3,
                            MemoryBasis::Z),
         NoiseModel::uniform(2e-3)},
        {circuit::buildMemoryCircuit(
             circuit::poorSurfaceSchedule(code::SurfaceCode(3)), 3,
             MemoryBasis::X, 4),
         NoiseModel::withIdle(1e-3, 1e-4)},
    };
    Rng rng(29);
    std::size_t nonempty = 0;
    for (const Case &c : cases) {
        FaultSweep sweep(c.circ, c.noise);
        Dem dem = sweep.dem();
        ASSERT_EQ(DemFingerprint(dem).value(),
                  DemFingerprint(buildDem(c.circ, c.noise)).value());
        auto adj = dem.detectorToErrors();
        for (int trial = 0; trial < 40; ++trial) {
            std::vector<uint8_t> in(dem.numDetectors, 0);
            std::vector<uint32_t> set;
            auto absorb = [&](uint32_t e) {
                for (uint32_t d : dem.errors[e].detectors) {
                    if (!in[d]) {
                        in[d] = 1;
                        set.push_back(d);
                    }
                }
            };
            absorb((uint32_t)rng.below(dem.errors.size()));
            for (std::size_t grow = rng.below(12); grow > 0 && !set.empty();
                 --grow) {
                const auto &near = adj[set[rng.below(set.size())]];
                absorb(near[rng.below(near.size())]);
            }
            Dem got = sweep.interiorMechanisms(set);
            std::size_t k = 0;
            for (const ErrorMechanism &mech : dem.errors) {
                bool inside = !mech.detectors.empty();
                for (uint32_t d : mech.detectors) {
                    inside = inside && in[d];
                }
                if (!inside) {
                    continue;
                }
                ASSERT_LT(k, got.errors.size());
                EXPECT_EQ(got.errors[k].detectors, mech.detectors);
                EXPECT_EQ(got.errors[k].observables, mech.observables);
                EXPECT_EQ(std::bit_cast<uint64_t>(got.errors[k].p),
                          std::bit_cast<uint64_t>(mech.p));
                EXPECT_TRUE(got.errors[k].sources.empty());
                ++k;
            }
            EXPECT_EQ(k, got.errors.size());
            nonempty += k > 0;
        }
    }
    EXPECT_GT(nonempty, 80u);
}

TEST(Sampler, EmptyDemGivesCleanShots)
{
    Dem dem;
    dem.numDetectors = 10;
    dem.numObservables = 1;
    SampleBatch b = sampleDem(dem, 100, 1);
    for (std::size_t s = 0; s < 100; ++s) {
        EXPECT_TRUE(b.flippedDetectors(s).empty());
        EXPECT_EQ(b.obsMask(s), 0u);
    }
}

TEST(Sampler, SingleMechanismFrequency)
{
    Dem dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    ErrorMechanism m;
    m.p = 0.25;
    m.detectors = {0, 1};
    m.observables = {0};
    dem.errors.push_back(m);
    std::size_t shots = 200000;
    SampleBatch b = sampleDem(dem, shots, 42);
    std::size_t fired = 0;
    for (std::size_t s = 0; s < shots; ++s) {
        bool d0 = b.detBit(s, 0);
        EXPECT_EQ(d0, b.detBit(s, 1));
        EXPECT_EQ(d0, b.obsMask(s) == 1);
        fired += d0;
    }
    double rate = (double)fired / (double)shots;
    EXPECT_NEAR(rate, 0.25, 0.01);
}

TEST(Sampler, XorOfTwoMechanisms)
{
    Dem dem;
    dem.numDetectors = 1;
    dem.numObservables = 1;
    ErrorMechanism a, b;
    a.p = 0.5;
    a.detectors = {0};
    b.p = 0.5;
    b.detectors = {0};
    b.observables = {0};
    dem.errors = {a, b};
    std::size_t shots = 100000;
    SampleBatch batch = sampleDem(dem, shots, 7);
    // Detector fires iff exactly one mechanism fired: probability 1/2.
    std::size_t fired = 0;
    for (std::size_t s = 0; s < shots; ++s) {
        fired += batch.detBit(s, 0);
    }
    EXPECT_NEAR((double)fired / shots, 0.5, 0.02);
}

TEST(Sampler, DeterministicSeeding)
{
    Dem dem = buildDem(d3Circuit(circuit::MemoryBasis::Z),
                       NoiseModel::uniform(1e-2));
    SampleBatch a = sampleDem(dem, 500, 9);
    SampleBatch b = sampleDem(dem, 500, 9);
    SampleBatch c = sampleDem(dem, 500, 10);
    EXPECT_EQ(a.det, b.det);
    EXPECT_NE(a.det, c.det);
}

TEST(Sampler, MeanDetectorRateMatchesExpectation)
{
    Dem dem = buildDem(d3Circuit(circuit::MemoryBasis::Z),
                       NoiseModel::uniform(5e-3));
    // Expected flips per shot: sum over mechanisms of p * |detectors|
    // (small-p approximation ignoring cancellation).
    double expected = 0;
    for (const auto &m : dem.errors) {
        expected += m.p * m.detectors.size();
    }
    std::size_t shots = 20000;
    SampleBatch batch = sampleDem(dem, shots, 11);
    double total = 0;
    for (std::size_t s = 0; s < shots; ++s) {
        total += batch.flippedDetectors(s).size();
    }
    double mean = total / shots;
    EXPECT_NEAR(mean, expected, expected * 0.1);
}

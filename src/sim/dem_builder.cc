#include "sim/dem_builder.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

namespace prophunt::sim {

namespace {

using circuit::Instruction;
using circuit::OpType;
using circuit::SmCircuit;

/** Empty table slot; also marks a fault whose signature is empty. */
constexpr uint32_t kNone = ~uint32_t{0};

/**
 * A fault site: one point of the circuit where a fault class acts. A
 * one-qubit site (reset, measurement or idle) owns generators X, Z on its
 * qubit; a CNOT site owns X, Z on the control and then X, Z on the target.
 */
struct Site
{
    uint32_t instr;
    uint32_t qubit; ///< Faulted qubit; the control on CNOT sites.
    uint32_t gen;   ///< First generator of the site.
    bool cnot;      ///< 15 two-qubit faults instead of 3 one-qubit ones.
    double prob;    ///< Probability of each fault at the site.
};

/** The 15 non-identity two-qubit Paulis (Pc, Pt) in fault order. */
constexpr auto kCnotPaulis = [] {
    std::array<std::pair<Pauli, Pauli>, 15> out{};
    std::size_t k = 0;
    for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
            if (a != 0 || b != 0) {
                out[k++] = {(Pauli)a, (Pauli)b};
            }
        }
    }
    return out;
}();

/**
 * Generators of a Pauli on one qubit of a site: bit 0 = X, bit 1 = Z. On
 * a CNOT site the target's bits sit two places higher.
 */
constexpr std::size_t
pauliBits(Pauli p)
{
    return (p == Pauli::X || p == Pauli::Y ? 1 : 0) |
           (p == Pauli::Z || p == Pauli::Y ? 2 : 0);
}

/** One-qubit faults in fault order; Y = XZ up to phase. */
constexpr Pauli kOneQubitPaulis[3] = {Pauli::X, Pauli::Y, Pauli::Z};

/** Call fn(p0, p1) for each fault of @p site in fault order. */
template <typename Fn>
void
forEachFault(const Site &site, Fn &&fn)
{
    if (site.cnot) {
        for (auto [pc, pt] : kCnotPaulis) {
            fn(pc, pt);
        }
    } else {
        for (Pauli p : kOneQubitPaulis) {
            fn(p, Pauli::I);
        }
    }
}

void
checkStrength(double p, const char *name)
{
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
        throw std::invalid_argument(
            std::string("buildDem: noise strength ") + name +
            " must be a finite probability in [0, 1], got " +
            std::to_string(p));
    }
}

/** Hash of one signature element; observables hash apart from detectors. */
uint64_t
elementHash(uint32_t v, bool observable)
{
    uint64_t h = (2 * (uint64_t)v + observable) * 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

/**
 * Detector and observable sets stored back to back in one arena: entry k
 * spans arena[off[k], off[k + 1]), detectors first. Each entry's hash is
 * the XOR of its elements' hashes, so the hash of a symmetric difference
 * is the XOR of the operands' hashes.
 */
struct SignatureArena
{
    std::vector<uint32_t> arena;
    std::vector<uint32_t> off{0};
    std::vector<uint32_t> numDet;
    std::vector<uint64_t> hash;

    const uint32_t *data(std::size_t k) const
    {
        return arena.data() + off[k];
    }
    uint32_t length(std::size_t k) const { return off[k + 1] - off[k]; }

    void clear()
    {
        arena.clear();
        off.assign(1, 0);
        numDet.clear();
        hash.clear();
    }

    /** Mark the end of the open entry's detectors. */
    void closeDetectors()
    {
        numDet.push_back((uint32_t)arena.size() - off.back());
    }

    /** Mark the end of the open entry and hash it. */
    void closeEntry()
    {
        off.push_back((uint32_t)arena.size());
        std::size_t k = numDet.size() - 1;
        uint64_t h = 0;
        for (uint32_t i = 0; i < length(k); ++i) {
            h ^= elementHash(data(k)[i], i >= numDet[k]);
        }
        hash.push_back(h);
    }

    /** Append entry a of this arena XOR entry b of @p other. */
    void pushXor(std::size_t a, const SignatureArena &other, std::size_t b)
    {
        // Reserve first: the source entry lives in the growing arena.
        arena.reserve(arena.size() + length(a) + other.length(b));
        const uint32_t *da = data(a), *db = other.data(b);
        const uint32_t *ea = da + length(a), *eb = db + other.length(b);
        const uint32_t *oa = da + numDet[a], *ob = db + other.numDet[b];
        auto out = std::back_inserter(arena);
        std::set_symmetric_difference(da, oa, db, ob, out);
        closeDetectors();
        std::set_symmetric_difference(oa, ea, ob, eb, out);
        off.push_back((uint32_t)arena.size());
        hash.push_back(hash[a] ^ other.hash[b]);
    }

    /** Append a copy of entry k of @p src. */
    void pushCopy(const SignatureArena &src, std::size_t k)
    {
        arena.insert(arena.end(), src.data(k), src.data(k) + src.length(k));
        numDet.push_back(src.numDet[k]);
        off.push_back((uint32_t)arena.size());
        hash.push_back(src.hash[k]);
    }

    /** True iff entry k equals entry j of @p other. */
    bool equals(std::size_t k, const SignatureArena &other,
                std::size_t j) const
    {
        return hash[k] == other.hash[j] && numDet[k] == other.numDet[j] &&
               length(k) == other.length(j) &&
               std::equal(data(k), data(k) + length(k), other.data(j));
    }
};

/**
 * Distinct signatures in order of first insertion, found through an
 * open-addressing table keyed by their hash. A hash hit is confirmed by a
 * full comparison, so no merge is probabilistic.
 */
class SignatureSet
{
  public:
    /** A set for at most @p max_entries distinct signatures. */
    explicit SignatureSet(std::size_t max_entries)
    {
        std::size_t capacity = 16;
        while (capacity < 2 * max_entries) {
            capacity <<= 1;
        }
        table_.assign(capacity, kNone);
    }

    /** Id of entry k of @p src, and true iff it was inserted now. */
    std::pair<uint32_t, bool> insert(const SignatureArena &src,
                                     std::size_t k)
    {
        const std::size_t mask = table_.size() - 1;
        for (std::size_t slot = src.hash[k] & mask;;
             slot = (slot + 1) & mask) {
            uint32_t id = table_[slot];
            if (id == kNone) {
                id = (uint32_t)sigs.hash.size();
                table_[slot] = id;
                sigs.pushCopy(src, k);
                return {id, true};
            }
            if (sigs.equals(id, src, k)) {
                return {id, false};
            }
        }
    }

    /** Entry id is the id-th distinct signature inserted. */
    SignatureArena sigs;

  private:
    std::vector<uint32_t> table_;
};

/** Compressed rows: row r is idx[off[r], off[r + 1]). */
struct Csr
{
    std::vector<uint32_t> off;
    std::vector<uint32_t> idx;

    /** Group (row[k], value[k]) pairs by row, values in input order. */
    Csr(std::size_t rows, const std::vector<uint32_t> &row,
        const std::vector<uint32_t> &value)
        : off(rows + 1, 0), idx(row.size())
    {
        for (uint32_t r : row) {
            ++off[r + 1];
        }
        for (std::size_t r = 0; r < rows; ++r) {
            off[r + 1] += off[r];
        }
        std::vector<uint32_t> fill(off.begin(), off.end() - 1);
        for (std::size_t k = 0; k < row.size(); ++k) {
            idx[fill[row[k]]++] = value[k];
        }
    }

    /** Measurement -> set incidence of detector or observable @p sets. */
    static Csr incidence(const std::vector<std::vector<std::size_t>> &sets,
                         std::size_t num_meas)
    {
        std::vector<uint32_t> meas, set;
        for (std::size_t k = 0; k < sets.size(); ++k) {
            for (std::size_t m : sets[k]) {
                meas.push_back((uint32_t)m);
                set.push_back((uint32_t)k);
            }
        }
        return Csr(num_meas, meas, set);
    }
};

/** Fill @p subset: entry k is the signature of @p site's generator subset
 * k, built as subset k & (k - 1) XOR the lowest generator in k. */
void
siteSubsets(const Site &site, const SignatureArena &gen_sig,
            SignatureArena &subset)
{
    subset.clear();
    subset.closeDetectors();
    subset.closeEntry();
    const std::size_t subsets = site.cnot ? 16 : 4;
    for (std::size_t k = 1; k < subsets; ++k) {
        subset.pushXor(k & (k - 1), gen_sig,
                       site.gen + std::countr_zero(k));
    }
}

/** Probability that exactly one of two independent faults fires. */
constexpr double
xorProbability(double a, double b)
{
    return a + b - 2.0 * a * b;
}

/** Generator subset of a fault: its index into siteSubsets' entries. */
constexpr std::size_t
subsetOf(Pauli p0, Pauli p1)
{
    return pauliBits(p0) | pauliBits(p1) << 2;
}

} // namespace

struct FaultSweep::Impl
{
    const SmCircuit *circuit;
    /** Fault sites in fault-enumeration order. */
    std::vector<Site> sites;
    /** Entry g: generator g's odd detector set, then odd observable set. */
    SignatureArena genSig;
};

FaultSweep::FaultSweep(const SmCircuit &circuit, const NoiseModel &noise)
    : impl_(std::make_unique<Impl>())
{
    checkStrength(noise.p1, "p1");
    checkStrength(noise.p2, "p2");
    checkStrength(noise.pIdle, "pIdle");
    impl_->circuit = &circuit;

    const std::size_t num_instr = circuit.instructions.size();
    const std::size_t num_qubits = circuit.numQubits;

    // Fault sites in fault-enumeration order: gate sites by instruction,
    // then idle sites by CNOT layer and qubit. Generators are numbered in
    // the same order.
    std::vector<Site> &sites = impl_->sites;
    uint32_t num_gen = 0;
    auto add_site = [&](std::size_t instr, uint32_t qubit, bool cnot,
                        double prob) {
        sites.push_back({(uint32_t)instr, qubit, num_gen, cnot, prob});
        num_gen += cnot ? 4 : 2;
    };
    for (std::size_t i = 0; i < num_instr; ++i) {
        const Instruction &ins = circuit.instructions[i];
        switch (ins.op) {
        case OpType::ResetZ:
        case OpType::ResetX:
        case OpType::MeasureZ:
        case OpType::MeasureX:
            if (noise.p1 > 0) {
                add_site(i, ins.qubits[0], false, noise.p1 / 3.0);
            }
            break;
        case OpType::Cnot:
            if (noise.p2 > 0) {
                add_site(i, ins.qubits[0], true, noise.p2 / 15.0);
            }
            break;
        case OpType::Tick:
            break;
        }
    }
    const std::size_t num_gate_sites = sites.size();
    // Idle sites: qubits unused during each CNOT layer, faulted just
    // before the layer's first CNOT.
    if (noise.pIdle > 0) {
        std::vector<uint8_t> busy(num_qubits);
        for (std::size_t i = 0; i < num_instr;) {
            if (circuit.instructions[i].op != OpType::Cnot) {
                ++i;
                continue;
            }
            std::size_t layer_start = i;
            std::fill(busy.begin(), busy.end(), 0);
            for (; i < num_instr &&
                   circuit.instructions[i].op == OpType::Cnot;
                 ++i) {
                busy[circuit.instructions[i].qubits[0]] = 1;
                busy[circuit.instructions[i].qubits[1]] = 1;
            }
            for (uint32_t q = 0; q < num_qubits; ++q) {
                if (!busy[q]) {
                    add_site(layer_start, q, false, noise.pIdle / 3.0);
                }
            }
        }
    }

    // Generator sweep: one bit per generator in contiguous per-qubit X
    // and Z planes. Propagation is linear, so each fault's measurement
    // flips are the XOR of its generators' flips.
    const std::size_t words = (num_gen + 63) / 64;
    std::vector<uint64_t> xp(num_qubits * words, 0);
    std::vector<uint64_t> zp(num_qubits * words, 0);
    auto xrow = [&](uint32_t q) { return xp.data() + q * words; };
    auto zrow = [&](uint32_t q) { return zp.data() + q * words; };
    auto inject = [&](uint32_t q, uint32_t gen) {
        xrow(q)[gen >> 6] ^= uint64_t{1} << (gen & 63);
        zrow(q)[(gen + 1) >> 6] ^= uint64_t{1} << ((gen + 1) & 63);
    };

    // Detector and observable planes: row d accumulates the XOR of the
    // measurement flips of detector d's measurements, so bit g of row d is
    // set iff generator g flips detector d.
    const std::size_t num_det = circuit.detectors.size();
    const std::size_t num_obs = circuit.observables.size();
    const Csr meas_det =
        Csr::incidence(circuit.detectors, circuit.numMeasurements);
    const Csr meas_obs =
        Csr::incidence(circuit.observables, circuit.numMeasurements);
    std::vector<uint64_t> det_plane(num_det * words, 0);
    std::vector<uint64_t> obs_plane(num_obs * words, 0);
    auto fold = [&](const Csr &inc, std::vector<uint64_t> &plane,
                    uint32_t meas, const uint64_t *flips) {
        for (uint32_t k = inc.off[meas]; k < inc.off[meas + 1]; ++k) {
            uint64_t *row = plane.data() + inc.idx[k] * words;
            for (std::size_t w = 0; w < words; ++w) {
                row[w] ^= flips[w];
            }
        }
    };

    uint32_t meas_index = 0;
    std::size_t next_site = 0, next_idle = num_gate_sites;
    for (std::size_t i = 0; i < num_instr; ++i) {
        const Instruction &ins = circuit.instructions[i];
        const bool measure =
            ins.op == OpType::MeasureZ || ins.op == OpType::MeasureX;
        const Site *site =
            next_site < num_gate_sites && sites[next_site].instr == i
                ? &sites[next_site++]
                : nullptr;
        // Idle and measurement faults act before the instruction; reset
        // and CNOT faults after it.
        for (; next_idle < sites.size() && sites[next_idle].instr == i;
             ++next_idle) {
            inject(sites[next_idle].qubit, sites[next_idle].gen);
        }
        if (site && measure) {
            inject(site->qubit, site->gen);
        }
        switch (ins.op) {
        case OpType::ResetZ:
        case OpType::ResetX: {
            std::fill_n(xrow(ins.qubits[0]), words, 0);
            std::fill_n(zrow(ins.qubits[0]), words, 0);
            break;
        }
        case OpType::Cnot: {
            const uint64_t *xc = xrow(ins.qubits[0]);
            const uint64_t *zt = zrow(ins.qubits[1]);
            uint64_t *xt = xrow(ins.qubits[1]);
            uint64_t *zc = zrow(ins.qubits[0]);
            for (std::size_t w = 0; w < words; ++w) {
                xt[w] ^= xc[w];
                zc[w] ^= zt[w];
            }
            break;
        }
        case OpType::MeasureZ:
        case OpType::MeasureX: {
            if (meas_index >= circuit.numMeasurements) {
                throw std::logic_error(
                    "buildDem: measurement count mismatch");
            }
            const uint64_t *flips = ins.op == OpType::MeasureZ
                                        ? xrow(ins.qubits[0])
                                        : zrow(ins.qubits[0]);
            fold(meas_det, det_plane, meas_index, flips);
            fold(meas_obs, obs_plane, meas_index, flips);
            ++meas_index;
            break;
        }
        case OpType::Tick:
            break;
        }
        if (site && !measure) {
            inject(site->qubit, site->gen);
            if (site->cnot) {
                inject(ins.qubits[1], site->gen + 2);
            }
        }
    }
    if (meas_index != circuit.numMeasurements) {
        throw std::logic_error("buildDem: measurement count mismatch");
    }

    // Generator signatures: odd detector set, then odd observable set.
    // Planes are read row by row, so each generator's sets come out
    // ascending.
    auto by_generator = [&](const std::vector<uint64_t> &plane,
                            std::size_t rows) {
        std::vector<uint32_t> gen, row;
        for (uint32_t r = 0; r < rows; ++r) {
            const uint64_t *bits = plane.data() + r * words;
            for (std::size_t w = 0; w < words; ++w) {
                for (uint64_t b = bits[w]; b; b &= b - 1) {
                    gen.push_back((uint32_t)((w << 6) + std::countr_zero(b)));
                    row.push_back(r);
                }
            }
        }
        return Csr(num_gen, gen, row);
    };
    const Csr gen_det = by_generator(det_plane, num_det);
    const Csr gen_obs = by_generator(obs_plane, num_obs);
    SignatureArena &gen_sig = impl_->genSig;
    gen_sig.arena.reserve(gen_det.idx.size() + gen_obs.idx.size());
    for (uint32_t g = 0; g < num_gen; ++g) {
        gen_sig.arena.insert(gen_sig.arena.end(),
                             gen_det.idx.begin() + gen_det.off[g],
                             gen_det.idx.begin() + gen_det.off[g + 1]);
        gen_sig.closeDetectors();
        gen_sig.arena.insert(gen_sig.arena.end(),
                             gen_obs.idx.begin() + gen_obs.off[g],
                             gen_obs.idx.begin() + gen_obs.off[g + 1]);
        gen_sig.closeEntry();
    }
}

FaultSweep::~FaultSweep() = default;

Dem
FaultSweep::dem() const
{
    const SmCircuit &circuit = *impl_->circuit;
    const std::vector<Site> &sites = impl_->sites;
    const SignatureArena &gen_sig = impl_->genSig;

    // First pass: merge fault signatures in fault order. Mechanism ids
    // follow first appearance and p folds in fault order, exactly as a
    // sequential merge would.
    std::size_t num_faults = 0;
    for (const Site &s : sites) {
        num_faults += s.cnot ? kCnotPaulis.size() : 3;
    }
    SignatureSet mechs(num_faults);
    std::vector<double> mech_p;
    std::vector<uint32_t> mech_sources;
    std::vector<uint32_t> fault_mech;
    fault_mech.reserve(num_faults);

    // subset entry k: the signature of the site's generator subset k.
    SignatureArena subset;
    auto merge = [&](std::size_t k, double prob) {
        if (subset.length(k) == 0) {
            fault_mech.push_back(kNone);
            return;
        }
        auto [id, inserted] = mechs.insert(subset, k);
        if (inserted) {
            mech_p.push_back(prob);
            mech_sources.push_back(1);
        } else {
            mech_p[id] = xorProbability(mech_p[id], prob);
            ++mech_sources[id];
        }
        fault_mech.push_back(id);
    };
    for (const Site &s : sites) {
        siteSubsets(s, gen_sig, subset);
        forEachFault(s, [&](Pauli p0, Pauli p1) {
            merge(subsetOf(p0, p1), s.prob);
        });
    }

    // Second pass: materialize the Dem at exact sizes, sources in fault
    // order.
    Dem dem;
    dem.numDetectors = circuit.detectors.size();
    dem.numObservables = circuit.observables.size();
    dem.errors.resize(mech_p.size());
    const SignatureArena &mech_sig = mechs.sigs;
    for (std::size_t id = 0; id < mech_p.size(); ++id) {
        ErrorMechanism &mech = dem.errors[id];
        const uint32_t *sig = mech_sig.data(id);
        const uint32_t num_det = mech_sig.numDet[id];
        mech.p = mech_p[id];
        mech.detectors.assign(sig, sig + num_det);
        mech.observables.assign(sig + num_det, sig + mech_sig.length(id));
        mech.sources.reserve(mech_sources[id]);
    }
    const uint32_t *mech_of = fault_mech.data();
    for (const Site &s : sites) {
        FaultLoc loc;
        loc.instr = s.instr;
        if (s.cnot) {
            loc.isCnot = true;
            loc.cnot = circuit.cnotInfo[s.instr];
        }
        forEachFault(s, [&](Pauli p0, Pauli p1) {
            if (uint32_t id = *mech_of++; id != kNone) {
                loc.p0 = p0;
                loc.p1 = p1;
                dem.errors[id].sources.push_back(loc);
            }
        });
    }
    return dem;
}

Dem
FaultSweep::interiorMechanisms(const std::vector<uint32_t> &detectors) const
{
    const SmCircuit &circuit = *impl_->circuit;
    const SignatureArena &gen_sig = impl_->genSig;
    std::vector<uint8_t> inside(circuit.detectors.size(), 0);
    for (uint32_t d : detectors) {
        inside[d] = 1;
    }
    auto in_set = [&](uint32_t d) { return inside[d] != 0; };

    // A fault's detectors are the odd part of its generators', so only a
    // site with a generator touching the set can have a fault inside it.
    std::vector<const Site *> touched;
    std::size_t num_faults = 0;
    for (const Site &s : impl_->sites) {
        for (uint32_t g = s.gen; g < s.gen + (s.cnot ? 4 : 2); ++g) {
            const uint32_t *d = gen_sig.data(g);
            if (std::any_of(d, d + gen_sig.numDet[g], in_set)) {
                touched.push_back(&s);
                num_faults += s.cnot ? kCnotPaulis.size() : 3;
                break;
            }
        }
    }

    // Merge the interior faults in fault order, as dem() does: every fault
    // of an interior mechanism is visited, in the same order.
    SignatureSet mechs(num_faults);
    std::vector<double> mech_p;
    SignatureArena subset;
    for (const Site *s : touched) {
        siteSubsets(*s, gen_sig, subset);
        forEachFault(*s, [&](Pauli p0, Pauli p1) {
            const std::size_t k = subsetOf(p0, p1);
            const uint32_t *sig = subset.data(k);
            const uint32_t num_det = subset.numDet[k];
            if (num_det == 0 || !std::all_of(sig, sig + num_det, in_set)) {
                return;
            }
            auto [id, inserted] = mechs.insert(subset, k);
            if (inserted) {
                mech_p.push_back(s->prob);
            } else {
                mech_p[id] = xorProbability(mech_p[id], s->prob);
            }
        });
    }

    Dem out;
    out.numDetectors = circuit.detectors.size();
    out.numObservables = circuit.observables.size();
    out.errors.resize(mech_p.size());
    for (std::size_t id = 0; id < mech_p.size(); ++id) {
        const uint32_t *sig = mechs.sigs.data(id);
        const uint32_t num_det = mechs.sigs.numDet[id];
        out.errors[id].p = mech_p[id];
        out.errors[id].detectors.assign(sig, sig + num_det);
        out.errors[id].observables.assign(sig + num_det,
                                          sig + mechs.sigs.length(id));
    }
    return out;
}

Dem
buildDem(const SmCircuit &circuit, const NoiseModel &noise)
{
    return FaultSweep(circuit, noise).dem();
}

} // namespace prophunt::sim

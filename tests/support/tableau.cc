#include "support/tableau.h"

#include <stdexcept>

namespace prophunt::oracles {

using sim::FaultLoc;
using sim::Pauli;
using sim::Rng;

Tableau::Tableau(std::size_t n)
    : n_(n), x_(2 * n + 1, gf2::BitVec(n)), z_(2 * n + 1, gf2::BitVec(n)),
      r_(2 * n + 1, 0)
{
    for (std::size_t i = 0; i < n; ++i) {
        x_[i].set(i, true);          // destabilizer X_i
        z_[n + i].set(i, true);      // stabilizer Z_i
    }
}

int
Tableau::pauliPhaseExponent(bool x1, bool z1, bool x2, bool z2) const
{
    // Exponent of i in (x1,z1) * (x2,z2), from Aaronson-Gottesman.
    if (!x1 && !z1) {
        return 0;
    }
    if (x1 && z1) { // Y
        return (int)z2 - (int)x2;
    }
    if (x1) { // X
        return (int)z2 * (2 * (int)x2 - 1);
    }
    // Z
    return (int)x2 * (1 - 2 * (int)z2);
}

void
Tableau::rowsum(std::size_t h, std::size_t i)
{
    int phase = 2 * (int)r_[h] + 2 * (int)r_[i];
    for (std::size_t j = 0; j < n_; ++j) {
        phase += pauliPhaseExponent(x_[i].get(j), z_[i].get(j),
                                    x_[h].get(j), z_[h].get(j));
    }
    phase = ((phase % 4) + 4) % 4;
    // Stabilizer-row updates always land on 0 or 2 (commuting products);
    // destabilizer-row updates may be odd, but their phases are never
    // read, so any consistent clamp works.
    r_[h] = phase == 2 || phase == 3;
    x_[h] ^= x_[i];
    z_[h] ^= z_[i];
}

void
Tableau::applyH(std::size_t q)
{
    for (std::size_t i = 0; i < 2 * n_; ++i) {
        bool xb = x_[i].get(q), zb = z_[i].get(q);
        r_[i] ^= (uint8_t)(xb && zb);
        x_[i].set(q, zb);
        z_[i].set(q, xb);
    }
}

void
Tableau::applyCnot(std::size_t c, std::size_t t)
{
    for (std::size_t i = 0; i < 2 * n_; ++i) {
        bool xc = x_[i].get(c), zc = z_[i].get(c);
        bool xt = x_[i].get(t), zt = z_[i].get(t);
        r_[i] ^= (uint8_t)(xc && zt && (xt == zc));
        x_[i].set(t, xt ^ xc);
        z_[i].set(c, zc ^ zt);
    }
}

void
Tableau::applyX(std::size_t q)
{
    for (std::size_t i = 0; i < 2 * n_; ++i) {
        r_[i] ^= (uint8_t)z_[i].get(q);
    }
}

void
Tableau::applyZ(std::size_t q)
{
    for (std::size_t i = 0; i < 2 * n_; ++i) {
        r_[i] ^= (uint8_t)x_[i].get(q);
    }
}

void
Tableau::applyY(std::size_t q)
{
    for (std::size_t i = 0; i < 2 * n_; ++i) {
        r_[i] ^= (uint8_t)(x_[i].get(q) != z_[i].get(q));
    }
}

bool
Tableau::measureZ(std::size_t q, Rng &rng)
{
    std::size_t p = 2 * n_;
    for (std::size_t i = n_; i < 2 * n_; ++i) {
        if (x_[i].get(q)) {
            p = i;
            break;
        }
    }
    if (p < 2 * n_) {
        // Random outcome.
        for (std::size_t i = 0; i < 2 * n_; ++i) {
            if (i != p && x_[i].get(q)) {
                rowsum(i, p);
            }
        }
        x_[p - n_] = x_[p];
        z_[p - n_] = z_[p];
        r_[p - n_] = r_[p];
        x_[p].clear();
        z_[p].clear();
        z_[p].set(q, true);
        bool outcome = rng.next() & 1;
        r_[p] = outcome;
        return outcome;
    }
    // Deterministic outcome via the scratch row.
    std::size_t s = 2 * n_;
    x_[s].clear();
    z_[s].clear();
    r_[s] = 0;
    for (std::size_t i = 0; i < n_; ++i) {
        if (x_[i].get(q)) {
            rowsum(s, i + n_);
        }
    }
    return r_[s];
}

bool
Tableau::measureX(std::size_t q, Rng &rng)
{
    applyH(q);
    bool b = measureZ(q, rng);
    applyH(q);
    return b;
}

void
Tableau::resetZ(std::size_t q, Rng &rng)
{
    if (measureZ(q, rng)) {
        applyX(q);
    }
}

void
Tableau::resetX(std::size_t q, Rng &rng)
{
    resetZ(q, rng);
    applyH(q);
}

namespace {

void
applyPauli(Tableau &t, Pauli p, std::size_t q)
{
    switch (p) {
    case Pauli::I:
        break;
    case Pauli::X:
        t.applyX(q);
        break;
    case Pauli::Y:
        t.applyY(q);
        break;
    case Pauli::Z:
        t.applyZ(q);
        break;
    }
}

} // namespace

std::vector<uint8_t>
runTableau(const circuit::SmCircuit &circuit, Rng &rng,
           const FaultLoc *inject)
{
    Tableau tab(circuit.numQubits);
    std::vector<uint8_t> meas;
    meas.reserve(circuit.numMeasurements);
    for (std::size_t i = 0; i < circuit.instructions.size(); ++i) {
        const auto &ins = circuit.instructions[i];
        bool fault_here = inject && inject->instr == i;
        bool before = ins.op == circuit::OpType::MeasureZ ||
                      ins.op == circuit::OpType::MeasureX;
        if (fault_here && before) {
            applyPauli(tab, inject->p0, ins.qubits[0]);
        }
        switch (ins.op) {
        case circuit::OpType::ResetZ:
            tab.resetZ(ins.qubits[0], rng);
            break;
        case circuit::OpType::ResetX:
            tab.resetX(ins.qubits[0], rng);
            break;
        case circuit::OpType::Cnot:
            tab.applyCnot(ins.qubits[0], ins.qubits[1]);
            break;
        case circuit::OpType::MeasureZ:
            meas.push_back(tab.measureZ(ins.qubits[0], rng));
            break;
        case circuit::OpType::MeasureX:
            meas.push_back(tab.measureX(ins.qubits[0], rng));
            break;
        case circuit::OpType::Tick:
            break;
        }
        if (fault_here && !before) {
            applyPauli(tab, inject->p0, ins.qubits[0]);
            if (ins.qubits.size() > 1) {
                applyPauli(tab, inject->p1, ins.qubits[1]);
            }
        }
    }
    return meas;
}

std::vector<uint8_t>
detectorValues(const circuit::SmCircuit &circuit,
               const std::vector<uint8_t> &meas)
{
    std::vector<uint8_t> out;
    out.reserve(circuit.detectors.size());
    for (const auto &det : circuit.detectors) {
        uint8_t v = 0;
        for (std::size_t m : det) {
            v ^= meas[m];
        }
        out.push_back(v);
    }
    return out;
}

std::vector<uint8_t>
observableValues(const circuit::SmCircuit &circuit,
                 const std::vector<uint8_t> &meas)
{
    std::vector<uint8_t> out;
    out.reserve(circuit.observables.size());
    for (const auto &obs : circuit.observables) {
        uint8_t v = 0;
        for (std::size_t m : obs) {
            v ^= meas[m];
        }
        out.push_back(v);
    }
    return out;
}

} // namespace prophunt::oracles

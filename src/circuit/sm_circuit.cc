#include "circuit/sm_circuit.h"

#include <stdexcept>

namespace prophunt::circuit {

std::size_t
SmCircuit::countCnots() const
{
    std::size_t c = 0;
    for (const auto &ins : instructions) {
        if (ins.op == OpType::Cnot) {
            ++c;
        }
    }
    return c;
}

SmCircuit
buildMemoryCircuit(const SmSchedule &schedule, std::size_t rounds,
                   MemoryBasis basis)
{
    if (rounds == 0) {
        throw std::invalid_argument(
            "buildMemoryCircuit: rounds must be >= 1");
    }
    const code::CssCode &code = schedule.code();
    auto ts = schedule.computeTimesteps();
    if (!ts) {
        throw std::invalid_argument("buildMemoryCircuit: unschedulable");
    }
    std::size_t n = code.n();
    std::size_t m = code.numChecks();
    std::size_t mx = code.numXChecks();

    SmCircuit circ;
    circ.numData = n;
    circ.numQubits = n + m;
    circ.rounds = rounds;
    circ.basis = basis;

    auto anc = [n](std::size_t c) { return (uint32_t)(n + c); };
    auto emit = [&circ](OpType op, std::vector<uint32_t> qs) {
        circ.instructions.push_back({op, std::move(qs)});
        circ.cnotInfo.emplace_back();
    };
    auto emit_cnot = [&](uint32_t ctrl, uint32_t tgt, CnotInfo info) {
        circ.instructions.push_back({OpType::Cnot, {ctrl, tgt}});
        circ.cnotInfo.push_back(info);
    };

    bool mem_x = basis == MemoryBasis::X;

    // Initial data reset in the memory basis.
    for (std::size_t q = 0; q < n; ++q) {
        emit(mem_x ? OpType::ResetX : OpType::ResetZ, {(uint32_t)q});
    }

    for (std::size_t r = 0; r < rounds; ++r) {
        emit(OpType::Tick, {});
        for (std::size_t c = 0; c < m; ++c) {
            emit(c < mx ? OpType::ResetX : OpType::ResetZ, {anc(c)});
        }
        for (std::size_t t = 0; t < ts->depth; ++t) {
            emit(OpType::Tick, {});
            for (std::size_t c = 0; c < m; ++c) {
                const auto &order = schedule.checkOrder(c);
                for (std::size_t k = 0; k < order.size(); ++k) {
                    if (ts->t[c][k] != t) {
                        continue;
                    }
                    uint32_t dq = (uint32_t)order[k];
                    CnotInfo info{c, order[k], k, r, false};
                    if (c < mx) {
                        emit_cnot(anc(c), dq, info); // X check: ancilla ctrl
                    } else {
                        emit_cnot(dq, anc(c), info); // Z check: data ctrl
                    }
                }
            }
        }
        emit(OpType::Tick, {});
        for (std::size_t c = 0; c < m; ++c) {
            emit(c < mx ? OpType::MeasureX : OpType::MeasureZ, {anc(c)});
        }
    }

    emit(OpType::Tick, {});
    for (std::size_t q = 0; q < n; ++q) {
        emit(mem_x ? OpType::MeasureX : OpType::MeasureZ, {(uint32_t)q});
    }
    circ.numMeasurements = rounds * m + n;

    auto meas = [m](std::size_t r, std::size_t c) { return r * m + c; };
    auto data_meas = [rounds, m](std::size_t q) { return rounds * m + q; };

    // A check is "deterministic-basis" if its first-round outcome is fixed
    // by the initial data reset: Z checks for memory-Z, X for memory-X.
    auto deterministic = [&](std::size_t c) {
        return mem_x ? c < mx : c >= mx;
    };

    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t c = 0; c < m; ++c) {
            if (r == 0) {
                if (deterministic(c)) {
                    circ.detectors.push_back({meas(0, c)});
                    circ.detectorSource.push_back({c, 0});
                }
            } else {
                circ.detectors.push_back({meas(r - 1, c), meas(r, c)});
                circ.detectorSource.push_back({c, r});
            }
        }
    }
    // Final detectors: compare the last check outcome to the value
    // reconstructed from the transversal data measurement.
    for (std::size_t c = 0; c < m; ++c) {
        if (!deterministic(c)) {
            continue;
        }
        std::vector<std::size_t> d{meas(rounds - 1, c)};
        for (std::size_t q : code.checkSupport(c)) {
            d.push_back(data_meas(q));
        }
        circ.detectors.push_back(std::move(d));
        circ.detectorSource.push_back({c, rounds});
    }

    const gf2::Matrix &lmat = mem_x ? code.lx() : code.lz();
    for (std::size_t i = 0; i < lmat.rows(); ++i) {
        std::vector<std::size_t> obs;
        for (std::size_t q : lmat.row(i).support()) {
            obs.push_back(data_meas(q));
        }
        circ.observables.push_back(std::move(obs));
    }

    return circ;
}

} // namespace prophunt::circuit

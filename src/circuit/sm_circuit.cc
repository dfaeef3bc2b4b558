#include "circuit/sm_circuit.h"

#include <algorithm>
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
                   MemoryBasis basis, std::size_t flag_weight)
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
    bool flags = flag_weight != 0;

    // Flagged checks, their flag qubit indices, and the first/last CNOT
    // layer of each check (where its flag couplings go).
    std::vector<long> flag_of(m, -1);
    std::vector<std::size_t> flagged;
    std::vector<std::size_t> t_first(m, 0), t_last(m, 0);
    for (std::size_t c = 0; flags && c < m; ++c) {
        if (schedule.checkOrder(c).size() < flag_weight) {
            continue;
        }
        flag_of[c] = (long)flagged.size();
        flagged.push_back(c);
        t_first[c] = *std::min_element(ts->t[c].begin(), ts->t[c].end());
        t_last[c] = *std::max_element(ts->t[c].begin(), ts->t[c].end());
    }
    std::size_t f = flagged.size();

    SmCircuit circ;
    circ.numData = n;
    circ.numQubits = n + m + f;
    circ.rounds = rounds;
    circ.basis = basis;

    auto anc = [n](std::size_t c) { return (uint32_t)(n + c); };
    auto flag_q = [n, m](std::size_t fi) { return (uint32_t)(n + m + fi); };
    auto emit = [&circ](OpType op, std::vector<uint32_t> qs) {
        circ.instructions.push_back({op, std::move(qs)});
        circ.cnotInfo.emplace_back();
    };
    auto emit_cnot = [&](uint32_t ctrl, uint32_t tgt, CnotInfo info) {
        circ.instructions.push_back({OpType::Cnot, {ctrl, tgt}});
        circ.cnotInfo.push_back(info);
    };
    auto emit_flag_cnot = [&](std::size_t c, std::size_t round) {
        CnotInfo info{c, 0, 0, round, true};
        if (c < mx) {
            // X check: ancilla (control) couples into the |0> flag.
            emit_cnot(anc(c), flag_q((std::size_t)flag_of[c]), info);
        } else {
            // Z check: the |+> flag (control) couples into the ancilla.
            emit_cnot(flag_q((std::size_t)flag_of[c]), anc(c), info);
        }
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
        for (std::size_t fi = 0; fi < f; ++fi) {
            emit(flagged[fi] < mx ? OpType::ResetZ : OpType::ResetX,
                 {flag_q(fi)});
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
            if (!flags) {
                continue;
            }
            // Flag couplings in the gap after layer t: the opening
            // coupling after a check's first CNOT and the closing one
            // before its last.
            emit(OpType::Tick, {});
            for (std::size_t c = 0; c < m; ++c) {
                if (flag_of[c] < 0) {
                    continue;
                }
                if (t == t_first[c]) {
                    emit_flag_cnot(c, r);
                }
                if (t + 1 == t_last[c]) {
                    emit_flag_cnot(c, r);
                }
            }
        }
        emit(OpType::Tick, {});
        for (std::size_t c = 0; c < m; ++c) {
            emit(c < mx ? OpType::MeasureX : OpType::MeasureZ, {anc(c)});
        }
        for (std::size_t fi = 0; fi < f; ++fi) {
            emit(flagged[fi] < mx ? OpType::MeasureZ : OpType::MeasureX,
                 {flag_q(fi)});
        }
    }

    emit(OpType::Tick, {});
    for (std::size_t q = 0; q < n; ++q) {
        emit(mem_x ? OpType::MeasureX : OpType::MeasureZ, {(uint32_t)q});
    }
    // Each round measures its m check ancillas, then its f flags.
    std::size_t stride = m + f;
    circ.numMeasurements = rounds * stride + n;

    auto meas = [stride](std::size_t r, std::size_t idx) {
        return r * stride + idx;
    };
    auto data_meas = [rounds, stride](std::size_t q) {
        return rounds * stride + q;
    };

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
        // Flag outcomes are deterministic every round.
        for (std::size_t fi = 0; fi < f; ++fi) {
            circ.detectors.push_back({meas(r, m + fi)});
            circ.detectorSource.push_back({m + fi, r});
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

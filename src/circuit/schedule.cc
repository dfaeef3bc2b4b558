#include "circuit/schedule.h"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <stdexcept>
#include <string>

namespace prophunt::circuit {

SmSchedule::SmSchedule(std::shared_ptr<const code::CssCode> code,
                       std::vector<std::vector<std::size_t>> check_order,
                       std::vector<std::vector<std::size_t>> qubit_order)
    : code_(std::move(code)), checkOrder_(std::move(check_order)),
      qubitOrder_(std::move(qubit_order))
{
    if (checkOrder_.size() != code_->numChecks() ||
        qubitOrder_.size() != code_->n()) {
        throw std::invalid_argument("SmSchedule: order size mismatch");
    }
}

SmSchedule
SmSchedule::fromTimesteps(
    std::shared_ptr<const code::CssCode> code,
    const std::vector<std::vector<std::pair<std::size_t, std::size_t>>> &ts)
{
    std::size_t m = code->numChecks();
    std::size_t n = code->n();
    std::vector<std::vector<std::size_t>> check_order(m);
    // Per qubit, collect (timestep, check) and sort.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> per_q(n);
    for (std::size_t c = 0; c < m; ++c) {
        std::vector<std::pair<std::size_t, std::size_t>> sorted = ts[c];
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.second < b.second;
                  });
        for (const auto &[q, t] : sorted) {
            check_order[c].push_back(q);
            per_q[q].push_back({t, c});
        }
    }
    std::vector<std::vector<std::size_t>> qubit_order(n);
    for (std::size_t q = 0; q < n; ++q) {
        std::sort(per_q[q].begin(), per_q[q].end());
        for (std::size_t i = 0; i + 1 < per_q[q].size(); ++i) {
            if (per_q[q][i].first == per_q[q][i + 1].first) {
                throw std::invalid_argument(
                    "fromTimesteps: qubit used twice in one timestep");
            }
        }
        for (const auto &[t, c] : per_q[q]) {
            qubit_order[q].push_back(c);
        }
    }
    return SmSchedule(std::move(code), std::move(check_order),
                      std::move(qubit_order));
}

std::size_t
SmSchedule::posInCheck(std::size_t check, std::size_t qubit) const
{
    const auto &o = checkOrder_[check];
    auto it = std::find(o.begin(), o.end(), qubit);
    if (it == o.end()) {
        throw std::invalid_argument("posInCheck: qubit not in check");
    }
    return (std::size_t)(it - o.begin());
}

std::size_t
SmSchedule::posOnQubit(std::size_t qubit, std::size_t check) const
{
    const auto &o = qubitOrder_[qubit];
    auto it = std::find(o.begin(), o.end(), check);
    if (it == o.end()) {
        throw std::invalid_argument("posOnQubit: check not on qubit");
    }
    return (std::size_t)(it - o.begin());
}

bool
SmSchedule::commutationValid() const
{
    std::size_t mx = code_->numXChecks();
    std::size_t m = code_->numChecks();
    for (std::size_t cx = 0; cx < mx; ++cx) {
        for (std::size_t cz = mx; cz < m; ++cz) {
            std::size_t crossings = 0;
            std::size_t shared = 0;
            for (std::size_t q : checkOrder_[cx]) {
                const auto &zq = checkOrder_[cz];
                if (std::find(zq.begin(), zq.end(), q) == zq.end()) {
                    continue;
                }
                ++shared;
                if (posOnQubit(q, cx) < posOnQubit(q, cz)) {
                    ++crossings;
                }
            }
            (void)shared;
            if (crossings % 2 != 0) {
                return false;
            }
        }
    }
    return true;
}

std::optional<Timesteps>
SmSchedule::computeTimesteps() const
{
    // Node per CNOT, identified by (check, position-in-check).
    std::size_t m = code_->numChecks();
    std::vector<std::size_t> base(m + 1, 0);
    for (std::size_t c = 0; c < m; ++c) {
        base[c + 1] = base[c] + checkOrder_[c].size();
    }
    std::size_t num_nodes = base[m];
    auto node = [&](std::size_t c, std::size_t pos) { return base[c] + pos; };

    std::vector<std::vector<std::size_t>> succ(num_nodes);
    std::vector<std::size_t> indeg(num_nodes, 0);
    auto add_edge = [&](std::size_t u, std::size_t v) {
        succ[u].push_back(v);
        ++indeg[v];
    };
    for (std::size_t c = 0; c < m; ++c) {
        for (std::size_t k = 0; k + 1 < checkOrder_[c].size(); ++k) {
            add_edge(node(c, k), node(c, k + 1));
        }
    }
    for (std::size_t q = 0; q < code_->n(); ++q) {
        for (std::size_t k = 0; k + 1 < qubitOrder_[q].size(); ++k) {
            std::size_t c1 = qubitOrder_[q][k];
            std::size_t c2 = qubitOrder_[q][k + 1];
            add_edge(node(c1, posInCheck(c1, q)), node(c2, posInCheck(c2, q)));
        }
    }

    // Longest-path layering via Kahn's algorithm.
    std::vector<std::size_t> level(num_nodes, 0);
    std::vector<std::size_t> queue;
    for (std::size_t v = 0; v < num_nodes; ++v) {
        if (indeg[v] == 0) {
            queue.push_back(v);
        }
    }
    std::size_t processed = 0;
    std::size_t max_level = 0;
    while (!queue.empty()) {
        std::size_t v = queue.back();
        queue.pop_back();
        ++processed;
        max_level = std::max(max_level, level[v]);
        for (std::size_t w : succ[v]) {
            level[w] = std::max(level[w], level[v] + 1);
            if (--indeg[w] == 0) {
                queue.push_back(w);
            }
        }
    }
    if (processed != num_nodes) {
        return std::nullopt; // cycle: not schedulable
    }
    Timesteps out;
    out.t.resize(m);
    for (std::size_t c = 0; c < m; ++c) {
        out.t[c].resize(checkOrder_[c].size());
        for (std::size_t k = 0; k < checkOrder_[c].size(); ++k) {
            out.t[c][k] = level[node(c, k)];
        }
    }
    out.depth = num_nodes == 0 ? 0 : max_level + 1;
    return out;
}

bool
SmSchedule::schedulable() const
{
    return computeTimesteps().has_value();
}

std::size_t
SmSchedule::depth() const
{
    auto ts = computeTimesteps();
    if (!ts) {
        throw std::logic_error("SmSchedule::depth: unschedulable");
    }
    return ts->depth;
}

SmSchedule
SmSchedule::withReorder(std::size_t check, std::size_t from_pos,
                        std::size_t before_pos) const
{
    SmSchedule s = *this;
    auto &o = s.checkOrder_[check];
    std::size_t q = o[from_pos];
    o.erase(o.begin() + (long)from_pos);
    std::size_t dest = before_pos;
    if (from_pos < before_pos) {
        --dest;
    }
    o.insert(o.begin() + (long)dest, q);
    return s;
}

SmSchedule
SmSchedule::withRelativeSwap(std::size_t qubit, std::size_t check_a,
                             std::size_t check_b) const
{
    SmSchedule s = *this;
    auto &o = s.qubitOrder_[qubit];
    auto ia = std::find(o.begin(), o.end(), check_a);
    auto ib = std::find(o.begin(), o.end(), check_b);
    if (ia == o.end() || ib == o.end()) {
        throw std::invalid_argument("withRelativeSwap: check not on qubit");
    }
    std::iter_swap(ia, ib);
    return s;
}

std::vector<std::size_t>
SmSchedule::sharedQubits(std::size_t check_a, std::size_t check_b) const
{
    std::vector<std::size_t> a = code_->checkSupport(check_a);
    std::vector<std::size_t> b = code_->checkSupport(check_b);
    std::vector<std::size_t> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
}

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/** kFnvPrimePow[k] = kFnvPrime^k (mod 2^64). */
constexpr std::array<uint64_t, 9> kFnvPrimePow = [] {
    std::array<uint64_t, 9> pow{};
    pow[0] = 1;
    for (std::size_t k = 1; k < pow.size(); ++k) {
        pow[k] = pow[k - 1] * kFnvPrime;
    }
    return pow;
}();

void
fnv(uint64_t &h, uint64_t v)
{
    // FNV-1a over the value's 8 bytes. A zero byte only multiplies by the
    // prime, so the zero high bytes fold into one multiply by a power of
    // it; the result equals hashing all 8 bytes one by one.
    std::size_t bytes = 0;
    for (; v != 0; v >>= 8, ++bytes) {
        h ^= v & 0xff;
        h *= kFnvPrime;
    }
    h *= kFnvPrimePow[8 - bytes];
}

void
fnvStr(uint64_t &h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= kFnvPrime;
    }
    fnv(h, s.size());
}

} // namespace

uint64_t
hashSchedule(const SmSchedule &schedule)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    const code::CssCode &code = schedule.code();
    fnvStr(h, code.name());
    fnv(h, code.n());
    fnv(h, code.k());
    fnv(h, code.numChecks());
    for (std::size_t c = 0; c < code.numChecks(); ++c) {
        // The check's support, ascending, read off its parity-check row
        // (checkSupport() would allocate; verification hashes every
        // candidate schedule).
        const gf2::BitVec &row = code.isXCheck(c)
                                     ? code.hx().row(c)
                                     : code.hz().row(c - code.numXChecks());
        for (std::size_t i = 0; i < row.words(); ++i) {
            for (uint64_t w = row.word(i); w != 0; w &= w - 1) {
                fnv(h, (i << 6) + (std::size_t)std::countr_zero(w));
            }
        }
        fnv(h, 0xdeadULL); // Check separator.
        for (std::size_t q : schedule.checkOrder(c)) {
            fnv(h, q);
        }
        fnv(h, 0xbeefULL);
    }
    for (std::size_t q = 0; q < code.n(); ++q) {
        for (std::size_t c : schedule.qubitOrder(q)) {
            fnv(h, c);
        }
        fnv(h, 0xfeedULL);
    }
    return h;
}

} // namespace prophunt::circuit

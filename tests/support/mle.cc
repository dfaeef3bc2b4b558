#include "support/mle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

namespace prophunt::oracles {

MleDecoder::MleDecoder(const sim::Dem &dem, std::size_t max_weight)
    : dem_(dem), maxWeight_(max_weight)
{
}

uint64_t
MleDecoder::decode(const std::vector<uint32_t> &flipped_detectors)
{
    std::size_t ne = dem_.errors.size();
    std::size_t words = (dem_.numDetectors + 63) / 64;
    std::vector<uint64_t> target(words, 0);
    for (uint32_t d : flipped_detectors) {
        target[d >> 6] |= uint64_t{1} << (d & 63);
    }
    std::vector<std::vector<uint64_t>> cols(ne,
                                            std::vector<uint64_t>(words, 0));
    std::vector<double> logp(ne);
    for (std::size_t e = 0; e < ne; ++e) {
        for (uint32_t d : dem_.errors[e].detectors) {
            cols[e][d >> 6] |= uint64_t{1} << (d & 63);
        }
        double p = std::clamp(dem_.errors[e].p, 1e-12, 0.5);
        logp[e] = std::log(p / (1.0 - p));
    }

    double best_logp = -1e300;
    uint64_t best_obs = 0;
    bool found = false;

    // DFS over subsets up to maxWeight_, pruning on the lowest unmatched
    // detector: one of its incident errors must be in the subset.
    auto det_adj = dem_.detectorToErrors();
    std::vector<uint64_t> residual = target;
    std::vector<uint8_t> used(ne, 0);

    std::function<void(std::size_t, double, uint64_t)> dfs =
        [&](std::size_t weight, double lp, uint64_t obs) {
            // Find lowest set bit of the residual.
            std::size_t det = dem_.numDetectors;
            for (std::size_t w = 0; w < words && det == dem_.numDetectors;
                 ++w) {
                if (residual[w]) {
                    det = (w << 6) + std::countr_zero(residual[w]);
                }
            }
            if (det == dem_.numDetectors) {
                if (!found || lp > best_logp) {
                    found = true;
                    best_logp = lp;
                    best_obs = obs;
                }
                return;
            }
            if (weight >= maxWeight_) {
                return;
            }
            for (uint32_t e : det_adj[det]) {
                if (used[e]) {
                    continue;
                }
                used[e] = 1;
                for (std::size_t w = 0; w < words; ++w) {
                    residual[w] ^= cols[e][w];
                }
                uint64_t obs_mask = 0;
                for (uint32_t o : dem_.errors[e].observables) {
                    obs_mask |= uint64_t{1} << o;
                }
                dfs(weight + 1, lp + logp[e], obs ^ obs_mask);
                for (std::size_t w = 0; w < words; ++w) {
                    residual[w] ^= cols[e][w];
                }
                used[e] = 0;
            }
        };
    dfs(0, 0.0, 0);
    return best_obs;
}

} // namespace prophunt::oracles

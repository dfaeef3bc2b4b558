/**
 * @file
 * Shared geometric-skip event kernel for the DEM samplers.
 *
 * Both the scalar row sampler (the oracles::sampleDem test oracle in
 * tests/support) and the word-packed frame sampler must
 * consume the RNG stream identically — their outputs are contractually
 * bit-identical at a fixed seed — so the per-mechanism skip loop lives
 * here once: the first event lands at floor(log(U)/log(1-p)), and each
 * subsequent gap is an independent geometric variate.
 */
#ifndef PROPHUNT_SIM_EVENT_STREAM_H
#define PROPHUNT_SIM_EVENT_STREAM_H

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "sim/dem.h"
#include "sim/rng.h"

namespace prophunt::sim::detail {

/**
 * Invoke emit(shot) for every shot in [0, shots) where @p mech fires.
 *
 * Shots are emitted in ascending order. Throws std::invalid_argument
 * (tagged with @p where) for p >= 1; p <= 0 mechanisms emit nothing and
 * consume no randomness.
 */
template <typename Emit>
inline void
forEachMechanismEvent(const ErrorMechanism &mech, std::size_t shots,
                      Rng &rng, const char *where, Emit emit)
{
    if (mech.p <= 0.0) {
        return;
    }
    if (mech.p >= 1.0) {
        throw std::invalid_argument(std::string(where) + ": p >= 1");
    }
    const double log1mp = std::log1p(-mech.p);
    auto gap = [&]() {
        double u = rng.uniform();
        return std::log(u <= 0 ? 1e-300 : u) / log1mp;
    };
    // Each gap is compared as a double against the shots left before it
    // is converted: for p below ~1e-18 a gap can exceed 2^64, and
    // floor(gap) < k <=> gap < k for an integer k.
    double g = gap();
    if (!(g < (double)shots)) {
        return;
    }
    std::size_t shot = (std::size_t)g;
    for (;;) {
        emit(shot);
        g = gap();
        if (!(g < (double)(shots - shot - 1))) {
            return;
        }
        shot += 1 + (std::size_t)g;
    }
}

} // namespace prophunt::sim::detail

#endif // PROPHUNT_SIM_EVENT_STREAM_H

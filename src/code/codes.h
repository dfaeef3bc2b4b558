/**
 * @file
 * The benchmark QEC code suite of the paper's Table 1, plus the seeded
 * random searches used to select concrete lifted-product / two-block
 * instances. The RQT codes are replaced by two-block group-algebra codes
 * of matching length, stabilizer weight, and distance, because the
 * paper's instances come from a randomized construction that cannot be
 * reproduced bit for bit (two_block.h).
 */
#ifndef PROPHUNT_CODE_CODES_H
#define PROPHUNT_CODE_CODES_H

#include <cstdint>
#include <vector>

#include "code/css_code.h"
#include "code/group_algebra.h"

namespace prophunt::code {

/** Rotated surface code entry of Table 1 ([[d^2, 1, d]]). */
CssCode benchmarkSurface(std::size_t d);

/** Lifted-product code over C3 standing in for the paper's [[39,3,3]]. */
CssCode benchmarkLp39();

/** Two-block code over C30 standing in for the [[60,2,6]] RQT code. */
CssCode benchmarkRqt60();

/** Two-block code over an order-27 cyclic group for the [[54,11,4]] RQT. */
CssCode benchmarkRqt54();

/** Two-block code over the order-54 dihedral group for [[108,18,4]]. */
CssCode benchmarkRqt108();

/** All eight benchmark codes of Table 1 in paper order. */
std::vector<CssCode> allBenchmarkCodes();

/** Outcome of a random instance search. */
struct SearchResult
{
    std::size_t k = 0;
    std::size_t d = 0;
    /** Group-element terms for each protograph entry (row major). */
    std::vector<std::vector<std::size_t>> termsA;
    std::vector<std::vector<std::size_t>> termsB;
};

/**
 * Randomly search two-block instances over @p g for a code with the target
 * parameters. Entries a and b each get @p weight random group elements.
 * Returns the best instance found (maximizing k closeness, then distance).
 */
SearchResult searchTwoBlock(const Group &g, std::size_t weight,
                            std::size_t target_k, std::size_t target_d,
                            std::size_t attempts, uint64_t seed);

/**
 * Randomly search lifted-product instances LP(A, B) over @p g with the
 * given protograph shapes and one random group element per nonzero entry.
 * Entry (r, c) is nonzero where @p maskA / @p maskB are set.
 */
SearchResult searchLiftedProduct(const Group &g, std::size_t ma,
                                 std::size_t na,
                                 const std::vector<int> &maskA,
                                 std::size_t mb, std::size_t nb,
                                 const std::vector<int> &maskB,
                                 std::size_t target_k, std::size_t target_d,
                                 std::size_t attempts, uint64_t seed);

} // namespace prophunt::code

#endif // PROPHUNT_CODE_CODES_H

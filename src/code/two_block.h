/**
 * @file
 * Two-block group-algebra (2BGA) codes.
 *
 * Given a, b in F2[G], the two-block code has n = 2|G| qubits and checks
 *
 *   H_X = [ L(a) | R(b) ],   H_Z = [ R(b)^T | L(a)^T ]
 *
 * which commute because left and right translations commute. For cyclic G
 * these are the well-known generalized bicycle codes. These serve as our
 * structural stand-in for the paper's Random Quantum Tanner codes:
 * irregular LDPC CSS codes built from the same group algebras
 * (C15-derived and dihedral) with matching stabilizer weights. The RQT
 * instances come out of a randomized Tanner-code construction whose
 * concrete check matrices the repository cannot reproduce, while a seeded
 * two-block search yields fixed codes of the same shape.
 */
#ifndef PROPHUNT_CODE_TWO_BLOCK_H
#define PROPHUNT_CODE_TWO_BLOCK_H

#include <string>

#include "code/css_code.h"
#include "code/group_algebra.h"

namespace prophunt::code {

/** Build the two-block code for algebra elements @p a and @p b over @p g. */
CssCode twoBlock(const Group &g, const AlgebraElement &a,
                 const AlgebraElement &b, const std::string &name);

} // namespace prophunt::code

#endif // PROPHUNT_CODE_TWO_BLOCK_H

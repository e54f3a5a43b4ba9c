/**
 * @file
 * Scalar recodings used by the point-multiplication methods of the
 * paper: binary expansion, width-w NAF (the Non-Adjacent Form, NAF, at
 * w = 2), and the Joint Sparse Form (JSF) for the GLV two-scalar
 * multiplication.
 *
 * All digit vectors are least-significant-digit first.
 */

#ifndef JAAVR_SCALAR_RECODE_HH
#define JAAVR_SCALAR_RECODE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "bigint/big_uint.hh"

namespace jaavr
{

/** Plain binary digits (0/1), LSB first; empty for zero. */
std::vector<int8_t> binaryDigits(const BigUInt &k);

/**
 * Width-w NAF: odd digits with |d| < 2^(w-1), at most one non-zero
 * digit in any w consecutive positions. w = 2 is the Non-Adjacent
 * Form: digits in {-1, 0, 1}, no two adjacent non-zero digits, an
 * average non-zero density of 1/3, which is what gives the NAF
 * double-and-add method its speed (paper, Section V-B).
 */
std::vector<int8_t> wNafDigits(const BigUInt &k, unsigned w);

/**
 * Joint Sparse Form of two non-negative scalars (Solinas). Returns
 * digit pairs in {-1, 0, 1}^2; the joint Hamming density is 1/2,
 * giving the n/2 doublings + n/4 additions cost of the GLV method
 * (paper, Section II-D).
 */
std::vector<std::pair<int8_t, int8_t>>
jsfDigits(const BigUInt &k1, const BigUInt &k2);

/** Rebuild the scalar from signed digits (for tests). */
BigUInt digitsToScalar(const std::vector<int8_t> &digits);

} // namespace jaavr

#endif // JAAVR_SCALAR_RECODE_HH

/**
 * @file
 * Primality testing and quadratic-residue symbols.
 */

#ifndef JAAVR_NT_PRIMALITY_HH
#define JAAVR_NT_PRIMALITY_HH

#include "bigint/big_uint.hh"
#include "support/random.hh"

namespace jaavr
{

/**
 * Miller-Rabin probabilistic primality test: trial division by the
 * primes up to 37, then @p rounds random bases, in n's Montgomery
 * domain on the three-limb kernel (field/redc.hh).
 *
 * @param n      candidate; an odd n of 2^192 or more is fatal
 * @param rng    randomness source for the bases
 * @param rounds number of random bases (error probability <= 4^-rounds)
 */
bool isProbablePrime(const BigUInt &n, Rng &rng, unsigned rounds = 40);

/**
 * Jacobi symbol (a / n) for odd n > 0. Returns -1, 0 or +1.
 * For prime n this is the Legendre symbol: +1 iff a is a non-zero
 * quadratic residue mod n.
 */
int jacobi(const BigUInt &a, const BigUInt &n);

} // namespace jaavr

#endif // JAAVR_NT_PRIMALITY_HH

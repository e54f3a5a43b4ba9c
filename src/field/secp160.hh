/**
 * @file
 * The SEC2 160-bit prime fields.
 *
 * secp160r1's p = 2^160 - 2^31 - 1 is the standardized reference the
 * paper benchmarks against its OPF fields: reduction works through
 * additions (2^160 = 2^31 + 1 mod p) rather than multiplications,
 * which is why it does not profit from the MAC unit the way OPFs do.
 * Both primes have the shape 2^160 - c with a small c, so PrimeField
 * picks its folding reduction for them by itself; these classes only
 * name the primes.
 */

#ifndef JAAVR_FIELD_SECP160_HH
#define JAAVR_FIELD_SECP160_HH

#include "field/prime_field.hh"

namespace jaavr
{

/**
 * Field of secp160r1: p = 2^160 - 2^31 - 1.
 */
class Secp160r1Field : public PrimeField
{
  public:
    Secp160r1Field();

    /** The prime 2^160 - 2^31 - 1. */
    static BigUInt primeValue();
};

/**
 * Field of secp160k1: p = 2^160 - 2^32 - 21389. Used by the GLV
 * cross-check tests (secp160k1 is a standardized curve of the GLV
 * family y^2 = x^3 + b).
 */
class Secp160k1Field : public PrimeField
{
  public:
    Secp160k1Field();

    /** The prime 2^160 - 2^32 - 21389. */
    static BigUInt primeValue();
};

} // namespace jaavr

#endif // JAAVR_FIELD_SECP160_HH

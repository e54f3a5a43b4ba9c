/**
 * @file
 * Square roots modulo an odd prime (Tonelli-Shanks).
 */

#ifndef JAAVR_NT_SQRT_MOD_HH
#define JAAVR_NT_SQRT_MOD_HH

#include <optional>

#include "bigint/big_uint.hh"
#include "support/random.hh"

namespace jaavr
{

/**
 * Square root of @p a modulo the odd prime @p p < 2^192 (a wider p
 * is fatal).
 *
 * @return a value r with r^2 = a (mod p), or std::nullopt if a is a
 *         non-residue. The other root is p - r; on the Tonelli-Shanks
 *         path, which one comes back depends on the non-residue drawn
 *         from @p rng.
 *
 * Handles the full Tonelli-Shanks loop; the OPF primes used in this
 * project have 2-adicity >= 144, so the p = 3 (mod 4) shortcut alone
 * would not suffice. The powers and the loop run in p's Montgomery
 * domain on the three-limb kernel (field/redc.hh).
 */
std::optional<BigUInt> sqrtMod(const BigUInt &a, const BigUInt &p, Rng &rng);

} // namespace jaavr

#endif // JAAVR_NT_SQRT_MOD_HH

/**
 * @file
 * Prime-field arithmetic context (the host "golden model").
 *
 * Elements are Fe values: three 64-bit limbs holding the canonical
 * residue in [0, p), for any odd modulus p < 2^192. The field picks
 * its reduction once, from the shape of the modulus:
 *
 *  - Fold, for p = 2^160 - c with c < 2^64 (secp160r1, secp160k1):
 *    the 320-bit product folds twice through 2^160 = c (mod p), the
 *    additions-only reduction the paper contrasts with its OPFs;
 *  - Redc, for every other modulus (the OPF primes, the group orders,
 *    small test primes): Montgomery REDC with R = 2^192, then one
 *    more REDC of the result times R^2 mod p to undo the R^-1, on
 *    the three-limb kernel in redc.hh that the set-up number theory
 *    shares.
 *
 * Inversion is Fermat's a^(p-2) with a fixed 4-bit window on the same
 * kernel (in the Montgomery domain for Redc fields) and counts as one
 * inv. BigUInt stays the edge type: values enter through fromBig and
 * leave through Fe::toBig, and each counted operation has a one-line
 * BigUInt overload for setup code, tests and benchmarks. The OPF
 * word-level model in opf_field.hh mirrors the AVR implementation and
 * is cross-checked against this class.
 */

#ifndef JAAVR_FIELD_PRIME_FIELD_HH
#define JAAVR_FIELD_PRIME_FIELD_HH

#include <optional>

#include "bigint/big_uint.hh"
#include "field/fe.hh"
#include "field/op_counts.hh"
#include "field/redc.hh"
#include "support/random.hh"

namespace jaavr
{

class PrimeField
{
  public:
    /** How mul/sqr reduce a product; fixed by the modulus's shape. */
    enum class Reduction : uint8_t
    {
        Fold, ///< p = 2^160 - c, c < 2^64: fold 2^160 = c (mod p)
        Redc, ///< Montgomery REDC (R = 2^192), then REDC by R^2
    };

    /**
     * @param p odd prime modulus below 2^192 (primality is the
     *          caller's duty; larger moduli are fatal).
     */
    explicit PrimeField(const BigUInt &p);

    const BigUInt &modulus() const { return p; }
    unsigned bits() const { return pBits; }
    Reduction reduction() const { return red; }

    // --- Fe arithmetic (every operation counted) ---------------------

    Fe add(const Fe &a, const Fe &b) const;
    Fe sub(const Fe &a, const Fe &b) const;
    Fe neg(const Fe &a) const;
    Fe mul(const Fe &a, const Fe &b) const;
    Fe sqr(const Fe &a) const;

    /**
     * Multiplication by a small constant (at most 16 bits). Counted
     * separately: the paper measures it at 0.25-0.3 of a full field
     * multiplication (Section II-B).
     */
    Fe mulSmall(const Fe &a, uint32_t c) const;

    /** Multiplicative inverse (Fermat, a^(p-2)); panics on zero. */
    Fe inv(const Fe &a) const;

    /** A BigUInt into [0, p); values >= p reduce as t % p does. */
    Fe fromBig(const BigUInt &a) const;

    // --- BigUInt overloads (convert, compute, convert back) ----------

    BigUInt
    add(const BigUInt &a, const BigUInt &b) const
    {
        return add(fromBig(a), fromBig(b)).toBig();
    }
    BigUInt
    sub(const BigUInt &a, const BigUInt &b) const
    {
        return sub(fromBig(a), fromBig(b)).toBig();
    }
    BigUInt neg(const BigUInt &a) const { return neg(fromBig(a)).toBig(); }
    BigUInt
    mul(const BigUInt &a, const BigUInt &b) const
    {
        return mul(fromBig(a), fromBig(b)).toBig();
    }
    BigUInt sqr(const BigUInt &a) const { return sqr(fromBig(a)).toBig(); }
    BigUInt
    mulSmall(const BigUInt &a, uint32_t c) const
    {
        return mulSmall(fromBig(a), c).toBig();
    }
    BigUInt inv(const BigUInt &a) const { return inv(fromBig(a)).toBig(); }

    // --- Setup-path helpers on BigUInt (not op-counted) --------------

    /** a^e mod p. Not op-counted (used only in setup paths). */
    BigUInt exp(const BigUInt &a, const BigUInt &e) const;

    /** Legendre symbol test. */
    bool isSquare(const BigUInt &a) const;

    /** Square root if it exists. */
    std::optional<BigUInt> sqrt(const BigUInt &a, Rng &rng) const;

    /** Reduce an arbitrary BigUInt into [0, p). */
    BigUInt reduce(const BigUInt &a) const { return a % p; }

    BigUInt fromUint(uint64_t v) const { return reduce(BigUInt(v)); }
    BigUInt fromHex(const std::string &h) const
    {
        return reduce(BigUInt::fromHex(h));
    }
    BigUInt random(Rng &rng) const { return BigUInt::random(rng, p); }

    /**
     * Attach an operation counter; all subsequent counted operations
     * increment it. Pass nullptr to detach.
     *
     * Thread-safety: the attachment is per-instance mutable state —
     * a field shared across threads with a counter attached would
     * race on the increments. The service layer therefore gives each
     * worker context its own PrimeField instance (they are cheap
     * value objects; see DESIGN.md §14) and never attaches a counter
     * to a shared field.
     */
    void attachCounter(FieldOpCounts *c) const { counter = c; }
    FieldOpCounts *attachedCounter() const { return counter; }

  private:
    /** a * b mod p through the field's reduction; not counted. */
    Fe mulRaw(const Fe &a, const Fe &b) const;

    BigUInt p;
    unsigned pBits;
    RedcContext mont;       ///< p's Montgomery domain (Redc's kernel)
    Reduction red;
    uint64_t foldC = 0;     ///< Fold: c = 2^160 - p
    ExpWindows invExp;      ///< p - 2, Fermat's inversion exponent
    mutable FieldOpCounts *counter = nullptr;
};

} // namespace jaavr

#endif // JAAVR_FIELD_PRIME_FIELD_HH

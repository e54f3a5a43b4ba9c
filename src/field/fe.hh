/**
 * @file
 * Fixed-width prime-field element: the value type of the host's hot
 * arithmetic (DESIGN.md §5.1).
 *
 * An Fe is three little-endian 64-bit limbs holding the canonical
 * residue in [0, p) of a modulus p < 2^192. It is plain data — no
 * heap, no reference to its field, trivially copyable — so points,
 * comb tables and batch vectors built from it are flat arrays of
 * words. Because the residue is canonical, equality, isZero() and the
 * conversion to BigUInt need no field; arithmetic always goes through
 * the PrimeField that owns the modulus (prime_field.hh), and BigUInt
 * values enter only through PrimeField::fromBig.
 */

#ifndef JAAVR_FIELD_FE_HH
#define JAAVR_FIELD_FE_HH

#include <cstdint>
#include <type_traits>

#include "bigint/big_uint.hh"

namespace jaavr
{

struct Fe
{
    static constexpr size_t limbs = 3;

    uint64_t w[limbs] = {0, 0, 0};

    bool isZero() const { return (w[0] | w[1] | w[2]) == 0; }
    bool operator==(const Fe &) const = default;

    /** The residue as a BigUInt (the edge type). */
    BigUInt toBig() const { return BigUInt::fromLimbs64(w, limbs); }

    /** 1, canonical in every field (every modulus is > 1). */
    static constexpr Fe one() { return Fe{{1, 0, 0}}; }
};

static_assert(std::is_trivially_copyable_v<Fe>);

} // namespace jaavr

#endif // JAAVR_FIELD_FE_HH

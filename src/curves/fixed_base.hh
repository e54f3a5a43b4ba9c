/**
 * @file
 * Precomputed fixed-base comb tables (Lim-Lee) for the curve
 * families' generators.
 *
 * The paper rejects windowed/comb methods on the 8-bit target for
 * their memory cost (Section V-B); on the host service side the
 * trade-off flips: a table built once per curve at startup turns
 * every fixed-base multiplication (ECDSA nonce point, key
 * generation, the verifier's u1*G term) from ~bits doublings +
 * ~bits/3 additions into bits/w doublings + bits/w additions. The
 * service layer (DESIGN.md §14) builds one table per curve and
 * shares it read-only across all worker threads.
 *
 * A comb of width w over a scalar of `bits` bits splits the scalar
 * into w rows of d = ceil(bits/w) columns; table entry j (for each
 * nonzero w-bit row pattern j) holds sum_{i in bits(j)} 2^(i*d) * G
 * as an affine point. Evaluation scans the d columns MSB-first with
 * one doubling and at most one mixed addition per column.
 *
 * The tables are immutable after construction and carry no reference
 * to the curve they were built from: every method takes the curve as
 * a parameter, so worker contexts that own private curve instances
 * (identical parameters, no shared mutable state — see the
 * thread-safety notes in prime_field.hh) can evaluate one shared
 * table concurrently.
 */

#ifndef JAAVR_CURVES_FIXED_BASE_HH
#define JAAVR_CURVES_FIXED_BASE_HH

#include <vector>

#include "curves/edwards.hh"
#include "curves/weierstrass.hh"

namespace jaavr
{

/** Fixed-base comb over a short Weierstrass (or GLV) curve. */
class FixedBaseComb
{
  public:
    /**
     * Build the table for @p g on @p c, covering scalars of up to
     * @p scalar_bits bits (use the subgroup order's bit length).
     * @p w is the comb width; 2 <= w <= 8 (2^w - 1 stored points).
     * Construction performs one batched affine conversion of the
     * whole table (invBatch), so startup costs a single inversion.
     */
    FixedBaseComb(const WeierstrassCurve &c, const AffinePoint &g,
                  unsigned scalar_bits, unsigned w = 5);

    /**
     * k * G in Jacobian coordinates (no final inversion — callers
     * batch the affine conversions across requests). @p c must be
     * parameter-identical to the construction curve. Requires
     * k < 2^(w*d); anything in [0, 2^scalar_bits) qualifies.
     */
    JacobianPoint mulJacobian(const WeierstrassCurve &c,
                              const BigUInt &k) const;

    /** k * G as an affine point (one inversion; convenience). */
    AffinePoint mul(const WeierstrassCurve &c, const BigUInt &k) const;

    const AffinePoint &generator() const { return base; }
    unsigned window() const { return width; }
    unsigned columns() const { return cols; }
    /** Stored points (2^w - 1; entry j at index j - 1). */
    size_t tableSize() const { return table.size(); }

  private:
    AffinePoint base;
    unsigned width;  ///< comb width w
    unsigned cols;   ///< d = ceil(scalar_bits / w)
    std::vector<AffineFe> table; ///< 2^w - 1 entries, all affine
};

/** Fixed-base comb over a twisted Edwards curve (a = -1). */
class EdwardsFixedBaseComb
{
  public:
    EdwardsFixedBaseComb(const EdwardsCurve &c, const AffinePoint &g,
                         unsigned scalar_bits, unsigned w = 5);

    /** k * G in extended coordinates (batch the final divisions). */
    ExtendedPoint mulExtended(const EdwardsCurve &c,
                              const BigUInt &k) const;

    AffinePoint mul(const EdwardsCurve &c, const BigUInt &k) const;

    const AffinePoint &generator() const { return base; }
    unsigned window() const { return width; }
    unsigned columns() const { return cols; }
    size_t tableSize() const { return table.size(); }

  private:
    AffinePoint base;
    unsigned width;
    unsigned cols;
    std::vector<AffineFe> table;
    std::vector<Fe> tableTd2; ///< precomputed 2d*x*y per entry
};

} // namespace jaavr

#endif // JAAVR_CURVES_FIXED_BASE_HH

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
 * ~bits/3 additions into a few doublings and ~bits/w additions. The
 * service layer (DESIGN.md §14) builds one table per curve and
 * shares it read-only across all worker threads.
 *
 * Both combs implement Lim and Lee's method ("More Flexible
 * Exponentiation with Precomputation", CRYPTO '94) with one layout of
 * w rows and v sub-tables, fixed in fixed_base.cc by a measured sweep
 * (DESIGN.md §14). A scalar of `bits` bits has d = ceil(bits/w)
 * columns, split over the v sub-tables, e = ceil(d/v) columns each;
 * bit i*v*e + b*e + c of k (row i < w, sub-table b < v, column
 * c < e) is bit i of the digit sub-table b reads at column c.
 * Sub-table b's entry j (for each nonzero w-bit digit j) holds
 * sum_{i in bits(j)} 2^(i*v*e + b*e) * G as an affine point, so a
 * table stores v * (2^w - 1) points. Evaluation scans the e columns
 * MSB-first, all v sub-tables sharing one chain of doublings: a k*G
 * costs e doublings (the first on the neutral element) plus at most
 * v*e mixed additions.
 *
 * The table is read at indices taken from the scalar's digits; the
 * host code makes no constant-time claim (DESIGN.md §14).
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
     * Construction performs one batched affine conversion of the
     * whole table (invBatch), so startup costs a single inversion.
     * An entry that collapses to the point at infinity (a generator
     * of order below 2^scalar_bits) is fatal.
     */
    FixedBaseComb(const WeierstrassCurve &c, const AffinePoint &g,
                  unsigned scalar_bits);

    /**
     * k * G in Jacobian coordinates (no final inversion — callers
     * batch the affine conversions across requests). @p c must be
     * parameter-identical to the construction curve. Requires
     * k < 2^(w*v*e); anything in [0, 2^scalar_bits) qualifies.
     */
    JacobianPoint mulJacobian(const WeierstrassCurve &c,
                              const BigUInt &k) const;

    /** k * G as an affine point (one inversion; convenience). */
    AffinePoint mul(const WeierstrassCurve &c, const BigUInt &k) const;

    const AffinePoint &generator() const { return base; }
    /** Stored points, v * (2^w - 1): sub-table b's entry j at
     *  b * (2^w - 1) + j - 1. */
    size_t tableSize() const { return table.size(); }

  private:
    AffinePoint base;
    unsigned span;               ///< e, columns per sub-table
    std::vector<AffineFe> table; ///< all affine, none at infinity
};

/** Fixed-base comb over a twisted Edwards curve (a = -1). */
class EdwardsFixedBaseComb
{
  public:
    EdwardsFixedBaseComb(const EdwardsCurve &c, const AffinePoint &g,
                         unsigned scalar_bits);

    /** k * G in extended coordinates (batch the final divisions). */
    ExtendedPoint mulExtended(const EdwardsCurve &c,
                              const BigUInt &k) const;

    AffinePoint mul(const EdwardsCurve &c, const BigUInt &k) const;

    const AffinePoint &generator() const { return base; }
    size_t tableSize() const { return table.size(); }

  private:
    AffinePoint base;
    unsigned span;
    std::vector<AffineFe> table;
    std::vector<Fe> tableTd2; ///< precomputed 2d*x*y per entry
};

} // namespace jaavr

#endif // JAAVR_CURVES_FIXED_BASE_HH

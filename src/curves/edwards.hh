/**
 * @file
 * Twisted Edwards curves a*x^2 + y^2 = 1 + d*x^2*y^2 in the extended
 * coordinates of Hisil et al. (the system the paper cites for its
 * Edwards implementation).
 *
 * With a = -1 (a square, since the OPF primes are 1 mod 4) and d a
 * non-square, the addition law is complete: it is correct for every
 * pair of inputs including the identity, which is what makes the
 * double-and-add-always method straightforward on this family
 * (paper, Section V-B). Costs: mixed addition 7M (with the addend's
 * 2d*t precomputed), doubling 3M + 4S (plus 1M when the following
 * operation needs the extended T coordinate).
 */

#ifndef JAAVR_CURVES_EDWARDS_HH
#define JAAVR_CURVES_EDWARDS_HH

#include <optional>
#include <string>
#include <vector>

#include "curves/point.hh"
#include "field/prime_field.hh"

namespace jaavr
{

class EdwardsCurve
{
  public:
    /**
     * @param field underlying prime field (not owned)
     * @param ca    coefficient a; must be -1 mod p (the fast-formula
     *              case implemented here)
     * @param cd    coefficient d; must be a non-square for a complete
     *              addition law, and distinct from a
     */
    EdwardsCurve(const PrimeField &field, const BigUInt &ca,
                 const BigUInt &cd, std::string name = "edwards");

    const PrimeField &field() const { return *f; }
    const BigUInt &coeffA() const { return a; }
    const BigUInt &coeffD() const { return d; }
    const std::string &name() const { return ident; }

    /** True iff the addition law is complete (a square, d non-square). */
    bool isComplete() const { return complete; }

    /** Identity element (0, 1). */
    AffinePoint identity() const;
    static AffineFe identityFe() { return AffineFe{Fe{}, Fe::one(), false}; }
    bool isIdentity(const AffinePoint &p) const;

    /** True iff a x^2 + y^2 = 1 + d x^2 y^2. */
    bool onCurve(const AffinePoint &p) const;

    /** Lift a y-coordinate to a point when possible. */
    std::optional<AffinePoint> liftY(const BigUInt &y, Rng &rng) const;

    /** Random curve point. */
    AffinePoint randomPoint(Rng &rng) const;

    AffinePoint negate(const AffinePoint &p) const;
    /** -q: x and 2d*x*y negated (2 negations). */
    EdwardsAddend negate(const EdwardsAddend &q) const;

    // --- Extended-coordinate arithmetic -----------------------------

    ExtendedPoint toExtended(const AffinePoint &p) const;
    ExtendedPoint toExtended(const AffineFe &p) const;
    AffinePoint toAffine(const ExtendedPoint &p) const;

    /**
     * Unified extended addition (works for doubling too, and for any
     * inputs when the law is complete): 8M + 1 mulSmall.
     */
    ExtendedPoint add(const ExtendedPoint &p, const ExtendedPoint &q) const;

    /**
     * Mixed addition with an affine addend whose product 2d*x*y is
     * precomputed: 7M (madd-2008-hwcd-3).
     */
    ExtendedPoint addMixed(const ExtendedPoint &p,
                           const EdwardsAddend &q) const;

    /**
     * Doubling (dbl-2008-hwcd): 3M + 4S without the T output,
     * 4M + 4S when @p need_t is set.
     */
    ExtendedPoint dbl(const ExtendedPoint &p, bool need_t) const;

    /** @p p as an addMixed addend: 2d * x * y precomputed (2M). */
    EdwardsAddend addend(const AffineFe &p) const;

    /**
     * Convert many extended points to affine with one field inversion
     * (invBatch over the Z coordinates; same amortization as the
     * Weierstrass toAffineBatch).
     */
    std::vector<AffineFe>
    toAffineBatchFe(const std::vector<ExtendedPoint> &points) const;

    // --- Point multiplication ---------------------------------------

    /** NAF double-and-add (high-speed method of Table II). */
    AffinePoint mulNaf(const BigUInt &k, const AffinePoint &p) const;

    /**
     * mulNaf without the final affine division: returns the extended
     * result so batch consumers can share one toAffineBatch inversion.
     */
    ExtendedPoint mulNafExtended(const BigUInt &k,
                                 const AffinePoint &p) const;

    /** Plain MSB-first double-and-add. */
    AffinePoint mulBinary(const BigUInt &k, const AffinePoint &p) const;

    /**
     * Double-and-add-always; relies on the complete addition law, so
     * no special cases are reachable (paper: the DAAA entry for the
     * Edwards row of Table II).
     */
    AffinePoint mulDaaa(const BigUInt &k, const AffinePoint &p) const;

  private:
    const PrimeField *f;
    BigUInt a;
    BigUInt d;
    Fe d2;  ///< 2d
    bool complete;
    std::string ident;
};

} // namespace jaavr

#endif // JAAVR_CURVES_EDWARDS_HH

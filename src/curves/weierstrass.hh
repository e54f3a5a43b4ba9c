/**
 * @file
 * Short Weierstrass curves y^2 = x^3 + a*x + b over a prime field.
 *
 * Implements the arithmetic the paper uses for secp160r1, its
 * non-standardized OPF Weierstrass curve, and (via a = 0) the GLV
 * family: Jacobian doubling (with dedicated a = -3 and a = 0 paths),
 * mixed Jacobian-affine addition, full Jacobian addition, and three
 * point-multiplication methods:
 *
 *  - NAF double-and-add (the paper's high-speed method),
 *  - double-and-add-always (DAAA, constant execution pattern),
 *  - the Montgomery ladder built on co-Z conjugate additions
 *    (ZADDC + ZADDU, 10M + 5S per bit), the register-lean ladder of
 *    Hutter-Joye-Sierra cited by the paper for its constant-time
 *    secp160r1/Weierstrass/GLV rows.
 *
 * The double-and-add methods run the loops of point_mult.hh.
 */

#ifndef JAAVR_CURVES_WEIERSTRASS_HH
#define JAAVR_CURVES_WEIERSTRASS_HH

#include <string>
#include <vector>

#include "curves/point.hh"
#include "field/prime_field.hh"

namespace jaavr
{

class WeierstrassCurve
{
  public:
    /**
     * @param field underlying prime field (not owned; must outlive
     *              the curve)
     * @param a     curve coefficient a
     * @param b     curve coefficient b
     * @param name  human-readable identifier for diagnostics
     */
    WeierstrassCurve(const PrimeField &field, const BigUInt &a,
                     const BigUInt &b, std::string name = "weierstrass");

    const PrimeField &field() const { return *f; }
    const BigUInt &coeffA() const { return a; }
    const BigUInt &coeffB() const { return b; }
    const std::string &name() const { return ident; }

    /** True iff the affine point satisfies the curve equation. */
    bool onCurve(const AffinePoint &p) const;

    /** Lift an x-coordinate to a point if x^3 + ax + b is a square. */
    std::optional<AffinePoint> liftX(const BigUInt &x, Rng &rng) const;

    /** A uniformly random curve point (never infinity). */
    AffinePoint randomPoint(Rng &rng) const;

    // --- Jacobian arithmetic ---------------------------------------

    JacobianPoint toJacobian(const AffinePoint &p) const;
    JacobianPoint toJacobian(const AffineFe &p) const;
    AffinePoint toAffine(const JacobianPoint &p) const;
    /** toAffine on field elements (one inversion). */
    AffineFe toAffineFe(const JacobianPoint &p) const;

    /** Point doubling; dispatches on a = 0 / a = -3 / generic. */
    JacobianPoint dbl(const JacobianPoint &p) const;

    /** Full Jacobian + Jacobian addition (handles all cases). */
    JacobianPoint add(const JacobianPoint &p, const JacobianPoint &q) const;

    /** Mixed Jacobian + affine addition (q must satisfy onCurve). */
    JacobianPoint addMixed(const JacobianPoint &p,
                           const AffinePoint &q) const;
    JacobianPoint addMixed(const JacobianPoint &p, const AffineFe &q) const;

    AffinePoint negate(const AffinePoint &p) const;
    AffineFe negate(const AffineFe &p) const;

    // --- Point multiplication ---------------------------------------

    /** NAF double-and-add (high-speed method of Table II). */
    AffinePoint mulNaf(const BigUInt &k, const AffinePoint &p) const;

    /**
     * mulNaf without the final affine conversion: returns the
     * Jacobian result so callers processing many multiplications
     * (the service layer's micro-batches) can convert them all with
     * one toAffineBatch inversion.
     */
    JacobianPoint mulNafJacobian(const BigUInt &k,
                                 const AffinePoint &p) const;

    /** Plain MSB-first double-and-add (baseline). */
    AffinePoint mulBinary(const BigUInt &k, const AffinePoint &p) const;

    /** Double-and-add-always: one add per bit regardless of its value. */
    AffinePoint mulDaaa(const BigUInt &k, const AffinePoint &p) const;

    /**
     * Montgomery ladder using co-Z conjugate additions. Requires
     * k >= 1. Performs exactly one ZADDC and one ZADDU per scalar bit
     * after the highest, independent of bit values, except for
     * k = n - 1 (n the order of @p p): its last ZADDC sum is the point
     * at infinity, and the ladder returns -P there without the final
     * ZADDU.
     */
    AffinePoint mulLadder(const BigUInt &k, const AffinePoint &p) const;

    /**
     * Width-w NAF double-and-add with a table of 2^(w-2) precomputed
     * odd multiples (converted to affine in one batch inversion).
     * The paper rejects windowed/comb methods for their memory cost
     * (Section V-B); mulWNaf exists to quantify that trade-off in the
     * ablation benchmark. 2 <= w <= 7.
     */
    AffinePoint mulWNaf(const BigUInt &k, const AffinePoint &p,
                        unsigned w) const;

    /**
     * Convert many Jacobian points to affine with a single field
     * inversion (Montgomery's simultaneous-inversion trick:
     * 1 inv + 3(n-1) + 2n muls). Infinity entries pass through.
     */
    std::vector<AffinePoint>
    toAffineBatch(const std::vector<JacobianPoint> &points) const;
    std::vector<AffineFe>
    toAffineBatchFe(const std::vector<JacobianPoint> &points) const;

  protected:
    // Co-Z primitives (exposed to the GLV subclass and tests via the
    // public multiplication methods).

    /** Initial doubling with Z = 1, leaving P and 2P with a common Z. */
    void dblu(const AffineFe &p, JacobianPoint &p_out,
              JacobianPoint &dbl_out) const;

    /**
     * Co-Z addition with update: r = p + q (p, q share z); p is
     * rewritten to the same new Z as r.
     */
    void zaddu(JacobianPoint &p, const JacobianPoint &q,
               JacobianPoint &r) const;

    /**
     * Conjugate co-Z addition: computes s = p + q and d = p - q with
     * a common new Z (p, q must share z).
     */
    void zaddc(const JacobianPoint &p, const JacobianPoint &q,
               JacobianPoint &s, JacobianPoint &d) const;

    const PrimeField *f;
    BigUInt a;
    BigUInt b;
    Fe aFe;  ///< a in the field, for the formulas
    bool aIsZero;
    bool aIsMinus3;
    std::string ident;
};

} // namespace jaavr

#endif // JAAVR_CURVES_WEIERSTRASS_HH

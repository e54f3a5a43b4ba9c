/**
 * @file
 * Montgomery curves B*y^2 = x^3 + A*x^2 + x and the x-coordinate-only
 * Montgomery ladder (paper, Section II-B).
 *
 * Each ladder step is one differential addition (3M + 2S with the
 * base point's Z = 1) and one doubling (2M + 2S + one multiplication
 * by the small constant (A + 2)/4), the paper's 5.3M + 4S per scalar
 * bit. The step is the same for either bit value and the curve runs
 * a fixed number of steps (curves/ladder.hh), which is why the
 * paper's high-speed and constant-time Montgomery rows coincide
 * (Table II).
 */

#ifndef JAAVR_CURVES_MONTGOMERY_HH
#define JAAVR_CURVES_MONTGOMERY_HH

#include <optional>
#include <string>

#include "curves/point.hh"
#include "curves/weierstrass.hh"
#include "field/prime_field.hh"

namespace jaavr
{

class MontgomeryCurve
{
  public:
    /**
     * @param field underlying prime field (not owned)
     * @param ca    coefficient A; A + 2 must be divisible by 4 so the
     *              doubling constant (A+2)/4 is a small integer
     * @param cb    coefficient B (irrelevant for the x-only ladder;
     *              used by the curve equation and the Weierstrass map)
     */
    MontgomeryCurve(const PrimeField &field, const BigUInt &ca,
                    const BigUInt &cb, std::string name = "montgomery");

    const PrimeField &field() const { return *f; }
    const BigUInt &coeffA() const { return a; }
    const BigUInt &coeffB() const { return b; }
    uint32_t a24() const { return a24v; }
    const std::string &name() const { return ident; }

    /** True iff (x, y) satisfies B y^2 = x^3 + A x^2 + x. */
    bool onCurve(const AffinePoint &p) const;

    /** Lift x to a full point if the RHS/B is a square. */
    std::optional<AffinePoint> liftX(const BigUInt &x, Rng &rng) const;

    /** Random full point (never infinity, never 2-torsion). */
    AffinePoint randomPoint(Rng &rng) const;

    /**
     * x-only Montgomery ladder: returns the x-coordinate of k*P given
     * the x-coordinate of P. Returns nullopt when k*P is the point at
     * infinity (Z ends at 0). The ladder runs max(k.bitLength(),
     * field().bits()) steps of the same field operations, so neither
     * the work nor the registers written depend on the key below
     * 2^field().bits(). x must not be 0: the point (0, 0) of order 2
     * lies outside the formulas' domain (validateX rejects it).
     *
     * When @p blind is given (nonzero), the working point starts in
     * randomized projective coordinates (X, Z) = (x * blind, blind)
     * instead of (x, 1) — Coron's third countermeasure. The ladder
     * step is projectively invariant, so the final X/Z division
     * cancels the factor and the result is unchanged, but every
     * intermediate value is multiplied by a fresh random mask, which
     * is what defeats first-order CPA on the intermediates
     * (bench_sidechannel measures exactly this).
     */
    std::optional<BigUInt> ladder(const BigUInt &k, const BigUInt &x,
                                  const BigUInt *blind = nullptr) const;

    /**
     * The ladder without the final X/Z division: returns the
     * projective (X : Z) result (Z = 0 encodes infinity, including
     * the k = 0 case). Batch consumers divide many results with one
     * invBatch over the Z values; ladder() is this plus one inv.
     */
    XzPoint ladderXz(const BigUInt &k, const BigUInt &x,
                     const BigUInt *blind = nullptr) const;

    /**
     * The birationally equivalent short Weierstrass curve
     * (a_w = (3 - A^2)/(3 B^2), b_w = (2A^3 - 9A)/(27 B^3)); used by
     * the cross-family consistency tests.
     */
    WeierstrassCurve toWeierstrass() const;

    /** Map a point to the equivalent Weierstrass curve. */
    AffinePoint mapToWeierstrass(const AffinePoint &p) const;

    /** Map a Weierstrass point back (must be in the image). */
    AffinePoint mapFromWeierstrass(const AffinePoint &p) const;

  private:
    const PrimeField *f;
    BigUInt a;
    BigUInt b;
    uint32_t a24v;  ///< (A + 2) / 4, a small constant by construction
    std::string ident;
};

} // namespace jaavr

#endif // JAAVR_CURVES_MONTGOMERY_HH

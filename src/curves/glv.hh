/**
 * @file
 * GLV curves y^2 = x^3 + b over p = 1 (mod 3) with the efficiently
 * computable endomorphism phi(x, y) = (beta*x, y), beta a primitive
 * cube root of unity (paper, Section II-D).
 *
 * The paper does not publish its curve constants, so this module can
 * *construct* a suitable curve: because j = 0 curves have complex
 * multiplication by sqrt(-3), the six twist orders are determined by
 * the decomposition 4p = L^2 + 27M^2 (computed via Cornacchia); the
 * actual order of a given b is identified by testing the candidate
 * orders against random points. b is searched until the order is
 * (cofactor <= 8 times) a prime, which the GLV decomposition needs.
 */

#ifndef JAAVR_CURVES_GLV_HH
#define JAAVR_CURVES_GLV_HH

#include <vector>

#include "curves/weierstrass.hh"
#include "scalar/glv_decompose.hh"

namespace jaavr
{

/** Constructed/loaded parameters of a GLV curve. */
struct GlvParams
{
    BigUInt b;        ///< curve coefficient (a = 0)
    BigUInt beta;     ///< cube root of unity mod p (phi eigen-map)
    BigUInt lambda;   ///< matching cube root of unity mod n
    BigUInt order;    ///< prime subgroup order n
    BigUInt cofactor; ///< full order = cofactor * n
    BigUInt gx, gy;   ///< generator of the prime-order subgroup
};

/** A primitive cube root of unity mod m, m = 1 (mod 3). */
BigUInt cubeRootOfUnity(const BigUInt &m, Rng &rng);

/**
 * The cube root of unity mod n that acts on G's order-n subgroup as
 * phi(x, y) = (beta x, y) does: @p lambda if lambda G = phi(G), its
 * square if lambda G = phi^2(G). Panics if neither holds.
 */
BigUInt matchGlvEigenvalue(const WeierstrassCurve &curve,
                           const BigUInt &beta, const BigUInt &lambda,
                           const AffinePoint &g, const BigUInt &n);

class GlvCurve : public WeierstrassCurve
{
  public:
    /**
     * Wrap validated parameters. Checks that G is a valid point (both
     * coordinates below p, on the curve) and beta/lambda/order
     * consistency (n * G == infinity, phi(G) == lambda * G), and
     * panics on any mismatch. Ecdsa(const GlvCurve &) relies on these
     * checks instead of repeating them.
     */
    GlvCurve(const PrimeField &field, const GlvParams &params,
             std::string name = "glv");

    /**
     * Try to construct a GLV curve over @p field. Because the order
     * of y^2 = x^3 + b depends only on the sextic-residue class of b,
     * a given prime admits exactly six orders; this first checks
     * whether any of the six CM candidates is (cofactor <= 8) times a
     * prime and returns nullopt otherwise — the caller then moves on
     * to the next OPF prime. On success, the smallest matching b and
     * the validated (beta, lambda, G) are returned.
     */
    static std::optional<GlvParams>
    tryConstruct(const PrimeField &field, Rng &rng);

    /** tryConstruct that panics on failure (for known-good fields). */
    static GlvParams construct(const PrimeField &field, Rng &rng);

    /**
     * The six candidate group orders of y^2 = x^3 + b over F_p given
     * 4p = L^2 + 27M^2 (exposed for tests).
     */
    static std::vector<BigUInt>
    candidateOrders(const BigUInt &p, const BigUInt &l, const BigUInt &m);

    const GlvParams &params() const { return prm; }
    const BigUInt &order() const { return prm.order; }
    AffinePoint generator() const;

    /** The endomorphism phi(x, y) = (beta x, y); one field mul. */
    AffinePoint phi(const AffinePoint &p) const;

    /**
     * GLV point multiplication: k*P = k1*P + k2*phi(P) with the JSF
     * Shamir trick (the paper's fastest method, "End, JSF" in
     * Table II). P must lie in the prime-order subgroup.
     */
    AffinePoint mulGlvJsf(const BigUInt &k, const AffinePoint &p) const;

    /**
     * mulGlvJsf without the final affine conversion, as
     * mulNafJacobian is to mulNaf: batches convert many results with
     * one toAffineBatch inversion.
     */
    JacobianPoint mulGlvJsfJacobian(const BigUInt &k,
                                    const AffinePoint &p) const;

    const GlvDecomposer &decomposer() const { return decomp; }

  private:
    GlvParams prm;
    Fe betaFe;  ///< beta in the field, for mulGlvJsf
    GlvDecomposer decomp;
};

} // namespace jaavr

#endif // JAAVR_CURVES_GLV_HH
